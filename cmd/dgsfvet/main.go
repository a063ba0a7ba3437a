// Command dgsfvet runs the project's custom static analyzers: the
// cross-cutting invariants behind the simulator's determinism, the
// transport's typed sentinels and framing, the async lane's deferrable-call
// table, server goroutine exits, the store's frozen objects and the mutex
// acquisition order. See DESIGN.md "Invariants" for the full list and the
// //lint:allow escape hatch.
//
// A //lint:allow that suppresses nothing is reported too, as staleallow.
//
//	go run ./cmd/dgsfvet ./...
package main

import (
	"flag"
	"fmt"
	"os"

	"dgsf/internal/lint"
	"dgsf/internal/lint/passes"
)

func main() {
	analyzers := passes.All()
	fs := flag.NewFlagSet("dgsfvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dgsfvet [packages]")
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
			fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			exit = 2
		}
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgsfvet:", err)
	os.Exit(1)
}
