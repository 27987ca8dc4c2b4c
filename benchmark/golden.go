package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// goldenSeed is the default seed, whose cardinalities are committed.
const goldenSeed = 42

// goldenEntry is the committed exact cardinality of one query of the
// default seed's mix: before any update, and after every held-out batch.
type goldenEntry struct {
	Query string `json:"query"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
}

// checkGolden compares the oracle's cardinalities for the default seed
// at full scale with the committed ones, so the oracle itself cannot
// drift with the code it checks. Other seeds and scales have the
// in-process EQA oracle only.
func (e *env) checkGolden(sp spec, seed int64, mix []query) error {
	if seed != goldenSeed || e.scale != 1 {
		return nil
	}
	got := make([]goldenEntry, len(mix))
	for i, q := range mix {
		got[i] = goldenEntry{q.text, q.lo, q.hi}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Query < got[j].Query })
	path := filepath.Join(e.root, "benchmark", "golden", fmt.Sprintf("%s-seed%d.json", sp.name, goldenSeed))
	if e.updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s is missing; write it with -update-golden", path)
	}
	if err != nil {
		return err
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s holds %d queries, the mix has %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: oracle says %+v, golden says %+v", path, got[i], want[i])
		}
	}
	return nil
}
