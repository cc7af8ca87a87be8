package svc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeSpec is the submission-decoding robustness contract: no
// byte sequence a client can POST may panic the decoder, and anything
// the decoder accepts must validate (or reject) without panicking
// either — a malformed submission becomes a 400 diagnostic, never a
// dead daemon and never an enqueued job.
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(`{"app":"sample","ranks":4}`))
	f.Add([]byte(`{"app":"tomcatv","mode":"am","ranks":64,"inputs":{"N":2048}}`))
	f.Add([]byte(`{"program":"program p\nproc main(rank)\nend","ranks":2}`))
	f.Add([]byte(`{"app":"sample","ranks":4}{"app":"sample"}`)) // trailing data
	f.Add([]byte(`{"app":"sample","ranks":4,"bogus":1}`))       // unknown field
	f.Add([]byte(`{"ranks":1e999}`))                            // overflow
	f.Add([]byte(`{"inputs":{"N":null}}`))
	f.Add([]byte(`{"app":"sample","ranks":4,"topology":"graph:/etc/passwd"}`))
	f.Add([]byte(`{"app":"sample","ranks":4,"limits":{"max_events":-1}}`))
	f.Add([]byte(`{"faults":{"seed":1}}`))
	f.Add([]byte(`{"app":"nassp","mode":"am","ranks":8,"cal_ranks":4}`)) // not a square
	f.Add([]byte(`{"trace":"{\"mpisim_trace\":1,\"ranks\":2,\"machine\":\"ibmsp\"}\n{\"r\":0,\"op\":\"barrier\"}\n{\"r\":1,\"op\":\"barrier\"}\n"}`))
	f.Add([]byte(`{"trace":"{\"mpisim_trace\":1,\"ranks\":2}\n","trace_ranks":8}`))
	f.Add([]byte(`{"trace":"{\"mpisim_trace\":1,\"ranks\":999999999}\n"}`)) // allocation bomb
	f.Add([]byte(`{"trace":"not a trace","ranks":4}`))
	f.Add([]byte(`{"app":"sample","trace":"{\"mpisim_trace\":1,\"ranks\":2}\n","ranks":4}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`"x"`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			if spec != nil {
				t.Fatalf("DecodeSpec returned both a spec and error %v", err)
			}
			return
		}
		// Whatever decoded must validate and hash without panicking.
		_ = spec.Validate(1 << 16)
		_ = spec.Hash()
		// Normalization must be idempotent, or equal submissions would
		// hash (and so cache) differently depending on replay order.
		h := spec.Hash()
		spec.Normalize()
		if spec.Hash() != h {
			t.Fatalf("Normalize not idempotent: hash changed")
		}
	})
}

// TestSubmitMalformedIs400 pins the HTTP half of the fuzz contract: a
// malformed POST /jobs gets a 400 with a JSON diagnostic, the job table
// stays empty, and the server keeps answering.
func TestSubmitMalformedIs400(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"not json", "ranks=4&app=sample"},
		{"trailing data", `{"app":"sample","ranks":4} extra`},
		{"unknown field", `{"app":"sample","ranks":4,"turbo":true}`},
		{"no workload", `{"ranks":4}`},
		{"both workloads", `{"app":"sample","program":"program p\nproc main(rank)\nend","ranks":4}`},
		{"unknown app", `{"app":"doom","ranks":4}`},
		{"bad mode", `{"app":"sample","ranks":4,"mode":"warp"}`},
		{"zero ranks", `{"app":"sample","ranks":0}`},
		{"server-side file topology", `{"app":"sample","ranks":4,"topology":"graph:/etc/passwd"}`},
		{"negative budget", `{"app":"sample","ranks":4,"limits":{"max_events":-5}}`},
		{"bad program", `{"program":"{{{{","ranks":2}`},
		{"nassp on a non-square rank count", `{"app":"nassp","mode":"measured","ranks":3}`},
		{"nassp calibrated on a non-square rank count", `{"app":"nassp","mode":"am","ranks":64,"cal_ranks":8}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var diag struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&diag)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if err != nil || diag.Error == "" {
			t.Errorf("%s: 400 body is not a JSON diagnostic (%v)", tc.name, err)
		}
	}
	if n := len(srv.Jobs()); n != 0 {
		t.Fatalf("malformed submissions enqueued %d job(s)", n)
	}
	// And the daemon is still healthy.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after malformed submissions: %d", resp.StatusCode)
	}
}

// TestSubmitOversizedIs400 bounds the request body.
func TestSubmitOversizedIs400(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	huge := `{"app":"sample","ranks":4,"program":"` + strings.Repeat("x", maxSpecBytes+1024)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(huge)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized spec: status %d, want 400", resp.StatusCode)
	}
}

// TestSpecHashIsTheJournalsFormat pins JobSpec.Hash for three specs that
// between them set every field, against values computed before the spec
// moved to internal/core: journaled specs, artifact-cache indexes and
// calibration-table names outlive the daemon that wrote them, so the
// struct's field order and JSON tags may only ever be appended to.
func TestSpecHashIsTheJournalsFormat(t *testing.T) {
	for body, want := range map[string]string{
		`{"app":"sample","mode":"am","ranks":4,"inputs":{"PATTERN":2,"ITERS":50,"WORK":100,"MSG":64}}`: "2cd789b77c2b23861f58bd05107aa961a868ba39e0da1d575a92edeb0aaa266d",
		`{"program":"program p\nend\n","mode":"de","ranks":8,"topology":"flat","placement":"roundrobin","faults":{"seed":42,"loss":[{"prob":0.05}]},"cal_ranks":2,"task_times":{"w_1":1e-9},"skip_checks":true,"limits":{"max_events":200,"wall_timeout_ms":5}}`: "bb9fda0401d8b5a99582cf6e49d61134a4823bc0a8b5088647d9ff2c202cf5e5",
		`{"trace":"{\"mpisim_trace\":1}\n","trace_ranks":32,"machine":"cluster"}`: "0e4270d6e2fefe9d9b1368ff636fd7c22bc37c2e8a576de66a6ac4aff0cf3d71",
	} {
		spec, err := DecodeSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Hash(); got != want {
			t.Errorf("Hash of %s\n  = %s\n want %s", body, got, want)
		}
	}
}
