package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/runtime/track"
)

// server is one motserve process under test.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	setup  time.Duration // exec until the first 200 from /debug/serve
	exited chan error    // cmd.Wait's result, once the process has ended
	io     track.Group
	poll   *http.Client

	mu   sync.Mutex
	tail []string // last lines of the server's stderr, for error reports
}

// startServer execs motserve on a free loopback port and waits until
// /debug/serve answers 200. Only sizing flags are passed: the server
// keeps its default seed, and the workload seed shapes only requests.
func startServer(bin string, spec *serveSpec) (*server, error) {
	s := &server{
		cmd: exec.Command(bin, "-addr", "127.0.0.1:0",
			"-nodes", strconv.Itoa(spec.nodes), "-shards", strconv.Itoa(spec.shards)),
		exited: make(chan error, 1),
		poll:   &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second},
	}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting motserve: %w", err)
	}
	addr := make(chan string, 1)
	s.io.Go(func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
		s.exited <- s.cmd.Wait()
	})
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.exited:
		s.exited <- err
		s.io.Wait()
		return nil, fmt.Errorf("motserve exited during start-up (%v): %s", err, s.logs())
	case <-time.After(150 * time.Second):
		s.kill()
		return nil, errors.New("motserve did not listen within 150s")
	}
	for {
		resp, err := s.poll.Get(s.base + "/debug/serve")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Since(start) > 150*time.Second {
			s.kill()
			return nil, fmt.Errorf("motserve never answered /debug/serve: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) logs() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// getJSON decodes the server's answer to GET path into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.poll.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for the drain; a clean drain exits 0.
// It falls back to SIGKILL after 30s.
func (s *server) stop() error {
	defer s.poll.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling motserve: %w", err)
	}
	var err error
	select {
	case err = <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		err = errors.New("drain took over 30s; killed")
	}
	s.io.Wait()
	if err != nil {
		return fmt.Errorf("motserve did not drain cleanly after SIGTERM (%v): %s", err, s.logs())
	}
	return nil
}

// kill ends the process without a drain, for error paths; after stop
// it only finds the process done.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // os.ErrProcessDone once it has exited
	s.io.Wait()
	s.poll.CloseIdleConnections()
}
