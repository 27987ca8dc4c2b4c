// Command pingload runs PING's partitioner (Algorithm 1) over an
// N-Triples file and persists the hierarchical partitioning — levels,
// vertical sub-partitions, VP/SI/OI indexes, and the term dictionary —
// into an on-disk DFS directory that pingquery can open.
//
// Usage:
//
//	pingload -in uniprot.nt -store ./uniprot-store
package main

import (
	"flag"
	"fmt"
	"os"

	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/rdf"
)

func main() {
	var (
		in          = flag.String("in", "", "input N-Triples file (required)")
		store       = flag.String("store", "", "output store directory (required)")
		datanodes   = flag.Int("datanodes", 4, "simulated DFS data nodes")
		repl        = flag.Int("replication", 1, "DFS block replication factor")
		distributed = flag.Bool("distributed", false, "run Algorithm 1 as a dataflow job (the paper's Spark mode)")
		workers     = flag.Int("workers", 4, "dataflow workers for -distributed")
		blooms      = flag.Bool("blooms", false, "also build per-sub-partition Bloom filters (§6.2 extension)")
	)
	flag.Parse()
	if *in == "" || *store == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	g, err := rdf.ParseNTriples(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	g.Dedup()
	fmt.Printf("parsed %d triples, %d terms\n", g.Len(), g.Dict.Len())

	fs, err := dfs.NewOnDisk(*store, dfs.Config{DataNodes: *datanodes, Replication: *repl})
	if err != nil {
		fatal(err)
	}
	opts := hpart.Options{FS: fs, BuildBlooms: *blooms}
	var lay *hpart.Layout
	if *distributed {
		lay, err = hpart.PartitionDistributed(g, dataflow.NewContext(*workers), opts)
	} else {
		lay, err = hpart.Partition(g, opts)
	}
	if err != nil {
		fatal(err)
	}
	if err := lay.SaveDict(); err != nil {
		fatal(err)
	}
	if err := fs.SaveManifest(); err != nil {
		fatal(err)
	}

	fmt.Printf("partitioned into %d levels in %v\n", lay.NumLevels, lay.PreprocessTime)
	for i, n := range lay.LevelTriples {
		fmt.Printf("  L%-2d %d triples\n", i+1, n)
	}
	u := fs.Usage()
	fmt.Printf("store: %d files, %s logical, %s physical (replication %d)\n",
		u.Files, size(u.LogicalBytes), size(u.PhysicalBytes), *repl)
}

func size(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pingload: %v\n", err)
	os.Exit(1)
}
