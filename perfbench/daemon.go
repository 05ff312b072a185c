package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one patternletd child process.
type daemon struct {
	id   string // ring member id; "" when standalone
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been waited for
}

// cluster is the set of daemons one set-up spawned: one standalone
// daemon, or the members of a static ring.
type cluster struct {
	nodes []*daemon
	dir   string
}

// live holds every daemon not yet stopped, so an interrupt can stop them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// startCluster spawns n daemons, each with its own fresh run store under
// the work directory, and returns once every one answers /healthz.
func startCluster(o options, n int, tag string) (*cluster, error) {
	dir, err := os.MkdirTemp(o.work, "run-"+tag+"-")
	if err != nil {
		return nil, err
	}
	cl := &cluster{dir: dir}
	var peers []string
	if n > 1 {
		for i := 1; i <= n; i++ {
			addr, err := freeAddr()
			if err != nil {
				return cl, err
			}
			peers = append(peers, fmt.Sprintf("n%d=%s", i, addr))
		}
	}
	for i := 1; i <= n; i++ {
		store := filepath.Join(dir, fmt.Sprintf("store%d", i))
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("daemon%d.log", i)))
		if err != nil {
			return cl, err
		}
		args := []string{"-store-dir", store}
		d := &daemon{done: make(chan struct{})}
		addrFile := filepath.Join(dir, fmt.Sprintf("addr%d", i))
		if n > 1 {
			d.id = fmt.Sprintf("n%d", i)
			d.addr = strings.TrimPrefix(peers[i-1], d.id+"=")
			args = append(args, "-node-id", d.id, "-peers", strings.Join(peers, ","))
		} else {
			args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
		}
		d.cmd = exec.Command(o.daemon, args...)
		d.cmd.Stdout, d.cmd.Stderr = logf, logf
		// The kernel kills the daemon if this process dies first.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			logf.Close()
			return cl, err
		}
		go func() {
			d.cmd.Wait()
			logf.Close()
			close(d.done)
		}()
		live.Lock()
		if live.set == nil {
			live.set = map[*daemon]bool{}
		}
		live.set[d] = true
		live.Unlock()
		cl.nodes = append(cl.nodes, d)
		if d.addr == "" {
			if d.addr, err = waitAddrFile(addrFile, d); err != nil {
				return cl, err
			}
		}
	}
	for _, d := range cl.nodes {
		if err := d.waitHealthy(); err != nil {
			return cl, err
		}
	}
	return cl, nil
}

// index is d's position in the cluster's node order.
func (cl *cluster) index(d *daemon) int {
	for i, n := range cl.nodes {
		if n == d {
			return i
		}
	}
	return -1
}

// freeAddr reserves a loopback port for a ring member's -peers entry.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const startTimeout = 30 * time.Second

func waitAddrFile(path string, d *daemon) (string, error) {
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-d.done:
			return "", fmt.Errorf("patternletd exited during start-up (see %s)", filepath.Dir(path))
		case <-time.After(500 * time.Microsecond):
		}
	}
	return "", fmt.Errorf("patternletd did not write %s within %v", path, startTimeout)
}

func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("patternletd %s exited during start-up", d.addr)
		case <-time.After(500 * time.Microsecond):
		}
	}
	return fmt.Errorf("patternletd %s not healthy within %v", d.addr, startTimeout)
}

// stop ends every daemon of the cluster (SIGTERM, then SIGKILL after a
// grace period), waits for each, and removes the cluster's directory.
func (cl *cluster) stop() {
	for _, d := range cl.nodes {
		d.stop()
	}
	cl.nodes = nil
	os.RemoveAll(cl.dir)
}

func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// stopAll stops every daemon still running (the interrupt path).
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// cpuSeconds sums user+system CPU time over the cluster's daemons, read
// from /proc/<pid>/stat. The generator's own CPU is not in it.
func (cl *cluster) cpuSeconds() (float64, error) {
	var total float64
	for _, d := range cl.nodes {
		c, err := procCPUSeconds(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// procCPUSeconds reads a process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return float64(ticks) / clockTick, nil
}

// peakRSSKB sums the daemons' peak resident set sizes (VmHWM).
func (cl *cluster) peakRSSKB() (int64, error) {
	var total int64
	for _, d := range cl.nodes {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				total += kb
				found = true
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", d.cmd.Process.Pid)
		}
	}
	return total, nil
}

// counters scrapes every daemon's /metrics.json, in node order.
func (cl *cluster) counters() ([]map[string]int64, error) {
	out := make([]map[string]int64, len(cl.nodes))
	for i, d := range cl.nodes {
		resp, err := http.Get("http://" + d.addr + "/metrics.json")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode %s/metrics.json: %w", d.addr, err)
		}
	}
	return out, nil
}
