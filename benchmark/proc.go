package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"irdb/client"
)

// workDir returns a fresh scratch directory under benchmark/out (the
// benchmark reads and writes only inside its checkout).
func workDir(root, prefix string) (string, error) {
	base := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// buildServer compiles cmd/irdb-server from the checkout's source into
// dir. The go tool's own cache makes every build after the first fast;
// the build is not part of setup_s, which would otherwise measure the
// state of that cache.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "irdb-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/irdb-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/irdb-server: %w\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running irdb-server.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logs   *bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the binary on a free loopback port and waits for
// /readyz. The wait is part of set-up: it covers process start, WAL
// recovery and the TSV load.
func startServer(bin string, args ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &serverProc{base: "http://" + addr, logs: &bytes.Buffer{}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = p.logs, p.logs
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(p.exited)
		defer func() { _ = recover() }()
		_ = p.cmd.Wait()
	}()
	probe := client.New(p.base, client.Config{})
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := probe.Ready(ctx)
		cancel()
		if err == nil {
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("irdb-server exited during start-up: %v\n%s", err, p.logs)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("irdb-server never became ready: %v\n%s", err, p.logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM) and waits for it to exit.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}

// kill is the crash: SIGKILL, no drain, no WAL close.
func (p *serverProc) kill() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// serverStats is the part of GET /stats the benchmark differences
// across the measured window.
type serverStats struct {
	Cache struct {
		Hits, Misses, Evictions, Shared, Oversize uint64
		StaleDrops, DepInvalidations              uint64
		Bytes, AuxBytes                           int64
	} `json:"cache"`
	Executor struct {
		NodeExecs int64 `json:"node_execs"`
		CacheHits int64 `json:"cache_hits"`
	} `json:"executor"`
	Optimizer struct {
		GroupsCosted int64 `json:"groups_costed"`
	} `json:"optimizer"`
	Admission struct {
		QueuedTotal int64 `json:"queued_total"`
		QueueWaitMS int64 `json:"queue_wait_ms"`
	} `json:"admission"`
	Faults struct {
		ShedRequests int64 `json:"shed_requests"`
		BudgetDenied int64 `json:"budget_denied"`
	} `json:"faults"`
	WAL *struct {
		Records int64 `json:"records"`
		Bytes   int64 `json:"bytes"`
		Fsyncs  int64 `json:"fsyncs"`
	} `json:"wal"`
	Ingest *struct {
		Segments int `json:"segments"`
	} `json:"ingest"`
}

func (p *serverProc) stats() (*serverStats, error) {
	resp, err := http.Get(p.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var s serverStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &s, nil
}

// procStatus reads one "Key:  <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// resetRSSPeak sets this process's VmHWM back to its current resident
// set. Where the kernel refuses, the mark keeps covering the whole
// process, which is what a single-workload run measured anyway.
func resetRSSPeak() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: VmHWM not reset, rss_peak_mb covers the whole process:", err)
	}
}

// cpuMS is the process's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func cpuMS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are well-formed.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unparseable /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparseable /proc stat times")
	}
	const msPerTick = 10 // USER_HZ is 100 on every Linux the sandbox runs
	return (utime + stime) * msPerTick, nil
}
