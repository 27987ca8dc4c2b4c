// Command pingupdate applies triple additions and/or removals to a store
// produced by pingload, using the incremental maintenance algorithm
// (the paper's §6.2 future-work item) instead of repartitioning. The
// hierarchy is reshaped on the fly: updates that introduce or remove
// characteristic sets can deepen or flatten levels, and only the affected
// instances' rows move.
//
// Usage:
//
//	pingupdate -store ./uniprot-store -add new.nt
//	pingupdate -store ./uniprot-store -remove old.nt -add new.nt
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/rdf"
)

func main() {
	var (
		store = flag.String("store", "", "store directory written by pingload (required)")
		addNT = flag.String("add", "", "N-Triples file with triples to add")
		remNT = flag.String("remove", "", "N-Triples file with triples to remove")
	)
	flag.Parse()
	if *store == "" || (*addNT == "" && *remNT == "") {
		flag.Usage()
		os.Exit(2)
	}

	fs, err := dfs.OpenOnDisk(*store)
	if err != nil {
		fatal(err)
	}
	lay, err := hpart.Load(fs, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("store: %d levels, %d triples\n", lay.NumLevels, lay.TotalTriples())

	m, err := hpart.NewStoreMaintainer(hpart.NewStore(lay))
	if err != nil {
		fatal(err)
	}
	add, err := loadDelta(*addNT, lay.Dict)
	if err != nil {
		fatal(err)
	}
	remove, err := loadDelta(*remNT, lay.Dict)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	if err := m.Apply(add, remove); err != nil {
		fatal(err)
	}
	lay = m.Layout()
	// Persist the (possibly grown) dictionary and namespace.
	if err := lay.SaveDict(); err != nil {
		fatal(err)
	}
	if err := fs.SaveManifest(); err != nil {
		fatal(err)
	}
	fmt.Printf("applied +%d/-%d triples in %v\n", len(add), len(remove), time.Since(start))
	fmt.Printf("store now: %d levels, %d triples\n", lay.NumLevels, lay.TotalTriples())
	for i, n := range lay.LevelTriples {
		fmt.Printf("  L%-2d %d triples\n", i+1, n)
	}
}

// loadDelta parses an N-Triples file, interning terms into the store's
// dictionary.
func loadDelta(path string, dict *rdf.Dict) ([]rdf.Triple, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := &rdf.Graph{Dict: dict}
	if err := rdf.ParseNTriplesInto(f, g); err != nil {
		return nil, err
	}
	return g.Triples, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pingupdate: %v\n", err)
	os.Exit(1)
}
