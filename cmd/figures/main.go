// Command figures regenerates the time series behind the thesis' scenario
// figures (Figures 5.2–5.15) as CSV on stdout or into a directory.
//
// Usage:
//
//	figures [-id 5.2] [-dir out/] [-list]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	id := fs.String("id", "", "regenerate only the figure with this thesis number (e.g. 5.4)")
	dir := fs.String("dir", "", "write one CSV file per figure into this directory instead of stdout")
	list := fs.Bool("list", false, "list the available figures and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	figs := scenarios.Figures()
	if *list {
		for _, f := range figs {
			fmt.Fprintf(w, "%-6s scenario %-2d  %s\n", f.ID, f.Scenario, f.Title)
		}
		return nil
	}

	// Run each needed scenario once.
	results := make(map[int]scenarios.Result)
	for _, f := range figs {
		if *id != "" && f.ID != *id {
			continue
		}
		if _, ok := results[f.Scenario]; !ok {
			sc, ok := scenarios.ScenarioByNumber(f.Scenario)
			if !ok {
				return fmt.Errorf("figure %s references unknown scenario %d", f.ID, f.Scenario)
			}
			results[f.Scenario] = scenarios.Run(sc)
		}
	}

	matched := 0
	for _, f := range figs {
		if *id != "" && f.ID != *id {
			continue
		}
		matched++
		csv := scenarios.RenderFigureCSV(results[f.Scenario], f)
		if *dir == "" {
			fmt.Fprint(w, csv)
			fmt.Fprintln(w)
			continue
		}
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		name := filepath.Join(*dir, "figure-"+strings.ReplaceAll(f.ID, ".", "_")+".csv")
		if err := os.WriteFile(name, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", name)
	}
	if matched == 0 {
		return fmt.Errorf("no figure with id %q", *id)
	}
	return nil
}
