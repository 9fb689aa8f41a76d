package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"entmatcher/internal/bench"
)

// provenance records what a number needs to be traced back to one command
// on a named host: host, GOMAXPROCS, Go version, source revision, seed and
// the workload's parameters.
func provenance(w *workload, o runOpts) map[string]any {
	host := bench.HostInfo()
	return map[string]any{
		"command":       []string{"python3", "perfbench/run.py", "--workload", w.Name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(boolInt(o.trace))},
		"workload":      w.Name,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"params":        w,
		"cpu":           host.CPU,
		"goos":          host.GOOS,
		"goarch":        host.GOARCH,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    host.GOMAXPROCS,
		"go_version":    runtime.Version(),
		"commit":        gitHead(o.root),
		"source_sha256": sourceDigest(o.root),
	}
}

// gitHead reads the checked-out commit from root/.git without running git;
// "none" when root is not a git work tree (e.g. an exported checkout).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod file of the module at
// root (names and contents, in path order), so a result identifies the
// code it measured even without git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasSuffix(p, ".s")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
