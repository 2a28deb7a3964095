// Command reprolint runs the repro static analyzer suite (internal/lint) over
// the whole module and reports every invariant violation as
//
//	file:line: [analyzer] message
//
// with the file path relative to the module root.  It exits 0 when the tree is
// clean, 1 when any analyzer reports a finding, and 2 when the module cannot
// be loaded or the flags are invalid.
//
// Usage:
//
//	go run ./cmd/reprolint ./...
//	go run ./cmd/reprolint -only hotpathalloc,determinism ./...
//	go run ./cmd/reprolint -json ./...
//
// The package pattern argument is accepted for familiarity but the suite
// always analyzes the entire module containing the working directory: the
// invariants it proves are whole-program properties (a hot path crosses
// packages, a Reset method and its callers live apart), so a partial load
// would be unsound.
//
// -json switches output to newline-delimited JSON, one object per finding:
//
//	{"file":"internal/vehicle/driver.go","line":42,"col":2,"analyzer":"slotbind","message":"..."}
//
// -only restricts the run to a comma-separated subset of analyzers; unknown
// names are an error listing the available suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit newline-delimited JSON instead of text diagnostics")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: reprolint [-json] [-only a,b] [-list] [./...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := moduleRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	prog, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}

	var names []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	diags, err := lint.RunAll(prog, names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		fmt.Fprintln(os.Stderr, "available analyzers:")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		return 2
	}

	if err := report(os.Stdout, diags, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// jsonDiagnostic is the NDJSON shape of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func report(w io.Writer, diags []lint.Diagnostic, asJSON bool) error {
	if !asJSON {
		for _, d := range diags {
			if _, err := fmt.Fprintln(w, d.String()); err != nil {
				return err
			}
		}
		return nil
	}
	enc := json.NewEncoder(w)
	for _, d := range diags {
		if err := enc.Encode(jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}); err != nil {
			return err
		}
	}
	return nil
}

// moduleRoot walks up from dir to the nearest directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
