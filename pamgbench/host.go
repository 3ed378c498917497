package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the fingerprint every recorded result carries.
type host struct {
	NumCPU     int
	GOMAXPROCS int
	CPU        string
	Go         string
	Commit     string
}

func (h host) String() string {
	return fmt.Sprintf("numcpu=%d gomaxprocs=%d cpu=%q go=%s commit=%s", h.NumCPU, h.GOMAXPROCS, h.CPU, h.Go, h.Commit)
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source the benchmark was built from: the git commit
// when root is a git checkout, otherwise a digest of the tree's Go sources
// and module files (an exported tree has no commit to read).
func commit(root string) string {
	if c := gitHead(filepath.Join(root, ".git")); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil)[:8])
}

// gitHead resolves HEAD in a .git directory, loose or packed ref; "" when
// it cannot.
func gitHead(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// statusField parses a "Key:   123 kB" line of /proc/self/status.
func statusField(status, key string) (float64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(f[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}
