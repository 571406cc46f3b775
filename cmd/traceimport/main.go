// Command traceimport converts a SNAP-style edge list — the format
// published graph datasets ship in — into a canonical dynmis-trace
// JSONL file that every tool in the repo can replay (`bench -replay`,
// `dynmis -replay`, the server's ingestion endpoint).
//
// The input is `u v` or `u v timestamp` lines with `#`/`%` comments;
// with -window W, a temporal edge list becomes a sliding window: an
// edge expires W time units after insertion and nodes leave when their
// last edge does. The output is deterministic byte for byte for a
// given input and flag set, so imported traces diff cleanly under
// version control.
//
// Usage:
//
//	traceimport -in as-graph.txt -out as.trace.jsonl
//	traceimport -window 3600 -normalize -out contacts.jsonl contacts.txt
//	cat edges.txt | traceimport > out.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynmis/trace/importer"
)

func main() {
	var (
		in        = flag.String("in", "", "input edge list (default stdin)")
		out       = flag.String("out", "", "output trace file (default stdout)")
		window    = flag.Int64("window", 0, "sliding-window width in timestamp units (0 = cumulative import)")
		normalize = flag.Bool("normalize", false, "renumber node IDs densely in first-appearance order")
		selfLoops = flag.String("self-loops", "skip", "self-loop policy: skip | error")
		dups      = flag.String("dups", "skip", "duplicate-edge policy: skip | error")
	)
	flag.Parse()
	// A bare path argument is the input file; silently reading an empty
	// stdin instead would report a convincing-looking zero-change import.
	switch {
	case flag.NArg() == 1 && *in == "":
		*in = flag.Arg(0)
	case flag.NArg() > 0:
		fmt.Fprintf(os.Stderr, "traceimport: unexpected arguments %q (use -in, or a single input path)\n", flag.Args())
		os.Exit(2)
	}
	if err := run(*in, *out, *window, *normalize, *selfLoops, *dups); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(in, out string, window int64, normalize bool, selfLoops, dups string) error {
	opts := importer.Options{Window: window, Normalize: normalize}
	var err error
	if opts.SelfLoops, err = importer.ParsePolicy(selfLoops); err != nil {
		return err
	}
	if opts.Duplicates, err = importer.ParsePolicy(dups); err != nil {
		return err
	}

	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	var dst io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	stats, err := importer.Import(dst, src, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"imported %d lines (%d comments): %d changes — %d node inserts, %d edge inserts, %d edges expired, %d nodes expired; dropped %d self-loops, %d duplicates\n",
		stats.Lines, stats.Comments, stats.Changes, stats.Nodes, stats.Edges,
		stats.ExpiredEdges, stats.ExpiredNodes, stats.SelfLoops, stats.Duplicates)
	if c, ok := dst.(io.Closer); ok && out != "" {
		return c.Close()
	}
	return nil
}
