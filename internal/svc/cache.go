package svc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mpisim/internal/compiler"
	"mpisim/internal/ir"
)

// compileCache is the daemon's core.Cache: it content-addresses compiler
// output and calibration tables by the keys core.Prepare derives from
// program + machine configuration, so repeat submissions of the same
// program skip the compiler entirely, and AM submissions with the same
// calibration context skip the calibration run too. Compiled results are
// shared read-only across jobs; every job gets its own core.Runner, so
// per-run state (Ctx, limits, telemetry) never crosses jobs.
//
// Calibration tables are additionally persisted under cal/<key>.json in
// the data directory, so a restarted daemon keeps its w_i tables. (The
// in-memory compiled IR/STG is rebuilt on demand — compilation is
// deterministic, so the tables remain valid for the same key.)
type compileCache struct {
	mu      sync.Mutex
	dir     string // cal table directory; "" disables persistence
	entries map[string]*compileEntry
}

// compileEntry is one compiled program + its calibration tables. The
// entry mutex serializes the expensive build/calibrate work per key
// while leaving other keys (and the cache map) unlocked.
type compileEntry struct {
	mu       sync.Mutex
	prog     *ir.Program
	compiled *compiler.Result
	cal      map[string]map[string]float64 // calKey -> w_i table
}

// calDirName is the calibration-table directory inside a daemon data
// directory.
const calDirName = "cal"

func newCompileCache(dataDir string) (*compileCache, error) {
	c := &compileCache{entries: map[string]*compileEntry{}}
	if dataDir != "" {
		c.dir = filepath.Join(dataDir, calDirName)
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// entry returns (creating if needed) the cache slot for key.
func (c *compileCache) entry(key string) *compileEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &compileEntry{cal: map[string]map[string]float64{}}
		c.entries[key] = e
	}
	return e
}

// Compiled returns the key's compiled program, building it on first
// use. build runs under the entry lock, so concurrent jobs needing the
// same program compile it exactly once.
func (c *compileCache) Compiled(key string, build func() (*ir.Program, *compiler.Result, error)) (*ir.Program, *compiler.Result, error) {
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.compiled != nil {
		return e.prog, e.compiled, nil
	}
	prog, res, err := build()
	if err != nil {
		return nil, nil, err
	}
	e.prog, e.compiled = prog, res
	return prog, res, nil
}

// TaskTimes returns the w_i table for calKey, consulting (in order) the
// in-memory entry, the on-disk table directory, and finally calibrate —
// whose result is persisted for the next daemon.
func (c *compileCache) TaskTimes(compileKey, calKey string, calibrate func() (map[string]float64, error)) (map[string]float64, error) {
	e := c.entry(compileKey)
	e.mu.Lock()
	defer e.mu.Unlock()
	if tt, ok := e.cal[calKey]; ok {
		return tt, nil
	}
	if tt, err := c.loadCal(calKey); err == nil && tt != nil {
		e.cal[calKey] = tt
		return tt, nil
	}
	tt, err := calibrate()
	if err != nil {
		return nil, err
	}
	e.cal[calKey] = tt
	// Persistence is an optimization; the table itself is good.
	_ = c.saveCal(calKey, tt)
	return tt, nil
}

// loadCal reads a persisted calibration table; (nil, nil) when absent.
func (c *compileCache) loadCal(key string) (map[string]float64, error) {
	if c.dir == "" || !validHash(key) {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var tt map[string]float64
	if err := json.Unmarshal(data, &tt); err != nil {
		return nil, fmt.Errorf("svc: calibration table %s corrupt: %w", key, err)
	}
	return tt, nil
}

// saveCal persists a calibration table via temp + rename.
func (c *compileCache) saveCal(key string, tt map[string]float64) error {
	if c.dir == "" || !validHash(key) {
		return nil
	}
	data, err := json.MarshalIndent(tt, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, tmpPrefix+key+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(c.dir, key+".json"))
}
