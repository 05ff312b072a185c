package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: a request in
// the traced window, or one call of a ladder rung.
type span struct {
	name       string
	id, parent int64 // parent 0 = a root span
	req        int64 // request number within its window or rung
	start, end int64 // ns since the log began
}

// spanLog keeps spans in memory; write saves them when the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, req int64, start, end time.Time) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{name, id, parent, req, int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch))})
	return id
}

// open starts a span whose end close records; children may name it as
// their parent meanwhile.
func (l *spanLog) open(name string, parent, req int64) int64 {
	now := time.Now()
	return l.add(name, parent, req, now, now)
}

func (l *spanLog) close(id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].end = int64(time.Since(l.epoch))
}

// write saves the spans as JSON under dir/traces and returns the path.
// Each span is one row [name, id, parent, req, start_ns, end_ns], with
// name an index into names, so a traced window of 10⁵ requests stays a
// few megabytes.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var names []string
	index := map[string]int64{}
	rows := make([][6]int64, len(l.spans))
	for i, s := range l.spans {
		n, ok := index[s.name]
		if !ok {
			n = int64(len(names))
			index[s.name] = n
			names = append(names, s.name)
		}
		rows[i] = [6]int64{n, s.id, s.parent, s.req, s.start, s.end}
	}
	b, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Columns  []string   `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][6]int64 `json:"spans"`
	}{workload, seed, []string{"name", "id", "parent", "req", "start_ns", "end_ns"}, names, rows})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
