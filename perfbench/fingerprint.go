package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the machine, toolchain, code and inputs a result
// came from.
func fingerprint(b *bench) map[string]any {
	sha, dirty := gitState(b.root)
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_sha":       sha,
		"git_dirty":     dirty,
		"source_sha256": sourceHash(b.root),
		"workload":      b.w.name,
		"daemon_flags":  strings.Join(b.w.daemonArgs(), " "),
		"seed":          b.seed,
		"budget":        b.w.opts.Requests,
		"rate":          b.w.rate,
		"conns":         b.w.conns,
		"depth":         b.w.depth,
	}
}

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

// gitState returns HEAD and whether tracked files differ from it, or "none"
// when the checkout is not a git work tree. Git is asked only when root
// itself holds .git, so it never searches the directories above.
func gitState(root string) (string, any) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none", nil
	}
	sha, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", nil
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(sha)), nil
	}
	return strings.TrimSpace(string(sha)), len(st) > 0
}

// sourceHash digests every Go source and module file under root, so results
// from checkouts without git history still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
