package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// proc is one clusterd process the benchmark started and must stop.
type proc struct {
	cmd     *exec.Cmd
	base    string
	log     *os.File
	drained chan struct{} // closed once stdout is fully read
}

// startClusterd runs the clusterd binary with args, logging its stderr
// to logPath, and returns once it has printed its listening line.
func startClusterd(bin, logPath string, args ...string) (*proc, error) {
	if bin == "" {
		return nil, errors.New("serve workloads need -clusterd")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, args...)...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: logf, drained: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		defer close(p.drained)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		lines <- line
		io.Copy(io.Discard, br)
	}()
	select {
	case line := <-lines:
		const prefix = "clusterd listening on "
		if !strings.HasPrefix(line, prefix) {
			p.stop()
			return nil, fmt.Errorf("clusterd %v: unexpected first line %q (see %s)", args, line, logPath)
		}
		p.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("clusterd %v: no listening line after 30s", args)
	}
}

// waitHealthy polls /v1/healthz until it answers.
func (p *proc) waitHealthy(ctx context.Context) error {
	c := newAPIClient(p.base)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := c.healthz(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not healthy after 30s: %w", p.base, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop ends the process with SIGTERM (SIGKILL after ten seconds) and
// waits for it.
func (p *proc) stop() {
	if p.cmd.Process != nil {
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			<-p.drained
			p.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-done
		}
	}
	p.log.Close()
}

// stopAll stops every process, in reverse start order.
func stopAll(ps []*proc) {
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}
