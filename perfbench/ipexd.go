package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ipex/internal/promtext"
)

// ipexd is one ipexd subprocess.
type ipexd struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once stderr reaches EOF
	last []string      // its last stderr lines, for error messages
}

// startIpexd starts ipexd on a free loopback port with an empty cache
// directory and waits until /healthz answers.
func startIpexd(bin, cacheDir string, workers int) (*ipexd, error) {
	if bin == "" {
		return nil, fmt.Errorf("remote-sweep needs --ipexd <path to the ipexd binary>")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", strconv.Itoa(workers), "-cache-dir", cacheDir)
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &ipexd{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && len(s.last) == 0 {
				u, _, _ := strings.Cut(rest, " ")
				addr <- u
			}
			s.last = append(s.last, line)
			if len(s.last) > 20 {
				s.last = s.last[1:]
			}
		}
	}()
	select {
	case s.url = <-addr:
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("ipexd exited before listening: %s", strings.Join(s.last, "; "))
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ipexd did not start listening within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ipexd /healthz did not answer 200 within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// stop drains the server with SIGINT, kills it if the drain takes longer
// than ten seconds, and waits for it to exit.
func (s *ipexd) stop() {
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.cmd.Wait()
}

func (s *ipexd) pid() int { return s.cmd.Process.Pid }

// rssMB is the server's peak resident set so far.
func (s *ipexd) rssMB() float64 { return peakRSSMB(strconv.Itoa(s.pid())) }

// metrics scrapes and parses /metrics.
func (s *ipexd) metrics() (*promtext.Exposition, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return promtext.Parse(string(body))
}

// value reads an unlabelled sample of a scraped series, 0 when absent.
func value(e *promtext.Exposition, family, sample string) float64 {
	f := e.Family(family)
	if f == nil {
		return 0
	}
	for _, s := range f.Samples {
		if s.Name == sample {
			return s.Value
		}
	}
	return 0
}
