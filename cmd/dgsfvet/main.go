// Command dgsfvet runs the project's custom static analyzers: the
// cross-cutting invariants behind the simulator's determinism, the
// transport's typed sentinels, the async lane's deferrable-call table, the
// buffer-ownership and shared-decode lifetimes of the wire path, the mutex
// acquisition order, the crash-recovery journal and server goroutine
// hygiene. See DESIGN.md "Invariants" for the full list and the
// //lint:allow escape hatch.
//
// A //lint:allow that suppresses nothing is reported too, as staleallow.
//
//	go run ./cmd/dgsfvet ./...
//	go run ./cmd/dgsfvet -json ./... # one JSON record per diagnostic
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dgsf/internal/lint"
	"dgsf/internal/lint/passes"
)

// jsonRecord is the -json output shape: one object per diagnostic, one per
// line, so the stream is greppable and trivially machine-readable.
type jsonRecord struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	analyzers := passes.All()
	fs := flag.NewFlagSet("dgsfvet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit one JSON record per diagnostic (file/line/col/analyzer/message)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dgsfvet [-json] [packages]")
		fmt.Fprintln(os.Stderr)
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, "\nanalyzers:")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		fatal(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	exit := 0
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintln(os.Stderr, e)
			}
			exit = 1
			continue
		}
		diags, err := lint.RunAnalyzersOpts(pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info, analyzers, lint.Options{ReportStale: true})
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			if *jsonOut {
				if err := enc.Encode(jsonRecord{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				}); err != nil {
					fatal(err)
				}
			} else {
				fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			}
			exit = 2
		}
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgsfvet:", err)
	os.Exit(1)
}
