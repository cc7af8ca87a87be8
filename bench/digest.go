package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"mpisim/internal/mpi"
)

// digest pins one prediction: the predicted time, the kernel's event and
// message counts and every rank's finish time, floats in their shortest
// round-trip form. It covers simulated statistics only, not artifact
// bytes, so host-side fields added to the artifact later leave it valid.
func digest(rep *mpi.Report) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(h, "time=%s events=%d messages=%d ranks=%d\n",
		f(rep.Time), rep.Kernel.Events, rep.Kernel.Delivered, len(rep.Ranks))
	for i := range rep.Ranks {
		fmt.Fprintf(h, "%s\n", f(float64(rep.Ranks[i].FinishTime)))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// goldenPath holds the seed-1 digest of every workload at full size; it
// changes only through -update-golden.
const goldenPath = "bench/golden.json"

func readGolden() (map[string]string, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func writeGolden(g map[string]string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
