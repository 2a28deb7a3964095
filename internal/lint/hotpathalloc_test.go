package lint

import (
	"strings"
	"testing"
)

// TestUnresolvedHotRootIsReported pins the stale-root guard: a well-known
// root that no longer exists in its loaded package is a finding on that
// package, a root in a package outside the load is skipped, and every
// shipped root resolves.
func TestUnresolvedHotRootIsReported(t *testing.T) {
	prog, _ := fixtureProgram(t)
	scenarios := prog.ModulePath + "/internal/scenarios"
	keys := append(hotRootKeys(prog.ModulePath),
		[3]string{scenarios, "retiredArena", "Observe"},
		[3]string{prog.ModulePath + "/internal/nosuch", "T", "M"},
	)
	var stale []Diagnostic
	for _, d := range hotPathAlloc(prog, keys) {
		if strings.Contains(d.Message, "well-known hot root") {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("got %d stale-root findings, want exactly 1: %v", len(stale), stale)
	}
	d := stale[0]
	if !strings.Contains(d.Message, scenarios+".retiredArena.Observe") {
		t.Errorf("finding does not name the missing root: %s", d)
	}
	if !strings.HasPrefix(d.Pos.Filename, "internal/scenarios/") || d.Analyzer != "hotpathalloc" {
		t.Errorf("finding not attributed to the root's package: %s", d)
	}
}
