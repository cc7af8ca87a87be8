package obs

import (
	"strings"
	"testing"
)

func TestRunInfoLifecycle(t *testing.T) {
	ri := NewRunInfo()
	if ri.State() != RunPending {
		t.Fatalf("initial state %q, want pending", ri.State())
	}
	ri.SetState(RunCompiling)
	ri.SetState(RunCalibrating)
	ri.SetState(RunRunning)
	st := ri.Status()
	if st.State != RunRunning {
		t.Fatalf("state %q, want running", st.State)
	}
	if st.ElapsedNs < 0 {
		t.Fatalf("elapsed %d < 0", st.ElapsedNs)
	}
	if st.HeartbeatAgeNs != -1 {
		t.Fatalf("heartbeat age %d before any beat, want -1", st.HeartbeatAgeNs)
	}
	ri.Finish(RunDone, 4.2, "")
	st = ri.Status()
	if st.State != RunDone || st.Percent != 1 || st.ETANs != 0 {
		t.Fatalf("done status = %+v", st)
	}
	if st.Virtual != 4.2 {
		t.Fatalf("final virtual %g, want 4.2", st.Virtual)
	}
}

func TestRunInfoPercentFromVirtualHorizon(t *testing.T) {
	ri := NewRunInfo()
	ri.SetHorizon(10, 1000)
	ri.SetState(RunRunning)
	ri.Heartbeat(2.5, 100)
	st := ri.Status()
	if st.Percent != 0.25 {
		t.Fatalf("percent %g, want 0.25 (virtual horizon wins)", st.Percent)
	}
	if st.ETANs <= 0 {
		t.Fatalf("eta %d, want > 0 while running with progress", st.ETANs)
	}
	if st.HeartbeatAgeNs < 0 {
		t.Fatalf("heartbeat age %d after a beat", st.HeartbeatAgeNs)
	}
}

func TestRunInfoPercentFallsBackToEventBudget(t *testing.T) {
	ri := NewRunInfo()
	ri.SetHorizon(0, 1000)
	ri.SetState(RunRunning)
	ri.Heartbeat(1, 400)
	if p := ri.Status().Percent; p != 0.4 {
		t.Fatalf("percent %g, want 0.4 from event budget", p)
	}
	// Progress beyond the budget clamps rather than exceeding 100%.
	ri.Heartbeat(2, 5000)
	if p := ri.Status().Percent; p != 1 {
		t.Fatalf("percent %g, want clamp to 1", p)
	}
}

func TestRunInfoNoHorizonMeansUnknown(t *testing.T) {
	ri := NewRunInfo()
	ri.SetState(RunRunning)
	ri.Heartbeat(3, 300)
	st := ri.Status()
	if st.Percent != -1 || st.ETANs != -1 {
		t.Fatalf("percent %g eta %d, want -1/-1 with no horizon", st.Percent, st.ETANs)
	}
}

func TestRunInfoAbort(t *testing.T) {
	ri := NewRunInfo()
	ri.SetState(RunRunning)
	ri.Finish(RunAborted, 1.5, "event budget exceeded")
	st := ri.Status()
	if st.State != RunAborted || st.AbortReason != "event budget exceeded" {
		t.Fatalf("abort status = %+v", st)
	}
	if st.ETANs != -1 {
		t.Fatalf("aborted run has eta %d, want -1", st.ETANs)
	}
}

func TestRunInfoWriteJSON(t *testing.T) {
	ri := NewRunInfo()
	ri.SetState(RunRunning)
	var b strings.Builder
	if err := ri.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"state": "running"`, `"percent"`, `"eta_ns"`, `"heartbeat_age_ns"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}
