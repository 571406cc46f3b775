package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynmis"
	"dynmis/server"
)

// buildDaemon compiles cmd/dynmisd from the checkout into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "dynmisd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dynmisd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/dynmisd: %w", err)
	}
	return bin, nil
}

// daemon is a running dynmisd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon runs dynmisd with its defaults on an ephemeral loopback
// port, with its WAL and snapshot in dir, and waits until it reports its
// address. The child is killed if this process dies.
func startDaemon(ctx context.Context, bin, dir string, seed uint64) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-wal", filepath.Join(dir, "wal.jsonl"), "-seed", strconv.FormatUint(seed, 10))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dynmisd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, errors.New("dynmisd exited during start-up")
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-deadline:
			d.kill()
			return nil, errors.New("dynmisd did not report its address within 30s")
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon and waits until it has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime the 12th and stime the 13th.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSSMB returns the peak resident set (VmHWM) of process pid in
// MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// newClient returns a client that keeps at most one connection open.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// postChanges sends one POST /v1/changes body and decodes the ack.
func postChanges(ctx context.Context, client *http.Client, base string, body []byte) (server.IngestResult, error) {
	var res server.IngestResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/changes", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	err = doJSON(client, req, &res)
	return res, err
}

// getMIS reads GET /v1/mis to the end of its body.
func getMIS(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/mis", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/mis: status %s", resp.Status)
	}
	return nil
}

// getState reads GET /v1/state as a membership map and its watermark.
func getState(ctx context.Context, client *http.Client, base string) (map[dynmis.NodeID]bool, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/state", nil)
	if err != nil {
		return nil, 0, err
	}
	var doc server.StateDoc
	if err := doJSON(client, req, &doc); err != nil {
		return nil, 0, err
	}
	state := make(map[dynmis.NodeID]bool, len(doc.Nodes))
	for _, n := range doc.Nodes {
		state[n.Node] = n.InMIS
	}
	return state, doc.Seq, nil
}

// getMetricsz reads GET /metricsz.
func getMetricsz(ctx context.Context, client *http.Client, base string) (server.Metricsz, error) {
	var mz server.Metricsz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metricsz", nil)
	if err != nil {
		return mz, err
	}
	err = doJSON(client, req, &mz)
	return mz, err
}

// doJSON performs req and decodes a 2xx JSON response body into v; any
// other status is an error.
func doJSON(client *http.Client, req *http.Request, v any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
