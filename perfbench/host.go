package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is what a run records about the machine and the code, so host
// drift between two sets of runs can be told apart from a change in the
// program.
type host struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
	commit, tree      string
	floorUS           float64 // ladder.http_floor_us
}

func recordHost(o options, tr traffic) (host, error) {
	h := host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		commit:     "none",
		tree:       treeDigest("."),
	}
	// Only a checkout's own .git is asked: git would otherwise search the
	// parent directories and could name an unrelated repository.
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			h.commit = strings.TrimSpace(string(b))
		}
	}
	// The floor posts the workload's own request body.
	body := tr.next(rand.New(rand.NewSource(o.seed))).body
	floor, err := nullFloor(body, seconds(max(0.5*o.scale, 0.05)))
	if err != nil {
		return h, err
	}
	h.floorUS = floor
	return h, nil
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

// treeDigest names the source the daemon was built from when there is no
// git commit to name: a SHA-256 over the paths and contents of the
// checkout's Go sources and go.mod files, build outputs excluded.
func treeDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\n")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// hostTicks reads the aggregate cpu line of /proc/stat: all ticks, and
// the ticks the hypervisor ran something else while this machine's
// CPUs wanted to run (steal). Their ratio over the window shows when the
// host, not the program, was slow.
func hostTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
