package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envRecord stamps a run with everything needed to tell whether two runs are
// comparable: toolchain, parallelism, hardware, source revision, seed and the
// workload's shape.  It is printed before the result line and heads the span
// file of a traced run.
type envRecord struct {
	Record     string         `json:"record"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Quick      bool           `json:"quick,omitempty"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	GitCommit  string         `json:"git_commit"`
	Params     map[string]any `json:"params"`
}

func environment(cfg config, w *workload) envRecord {
	return envRecord{
		Record:     "environment",
		Workload:   w.name,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Seconds:    cfg.seconds.Seconds(),
		Quick:      cfg.quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit("."),
		Params:     w.params(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the git repository at root without running git:
// a detached HEAD holds the hash, otherwise it names a ref that is either a
// loose file or a line of packed-refs.  A source tree that is not a git
// checkout reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
