package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// line is one line a child printed on stdout, stamped when the
// benchmark read it.
type line struct {
	at   time.Time
	text string
}

// proc is one child process the benchmark started. Each child leads
// its own process group, so killing the group also reaps whatever the
// child spawned (poseidon-cluster's workers).
type proc struct {
	name  string
	cmd   *exec.Cmd
	start time.Time

	mu    sync.Mutex
	lines []line
	grew  chan struct{} // closed and replaced whenever lines grows

	readDone chan struct{}
	waitDone chan struct{}
	waitErr  error
	maxRSSKB int64
}

// live is every process started and not yet reaped, so a failing or
// interrupted benchmark can kill them all before it exits.
var live = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// startProc starts bin with args; stdout is captured line by line and
// stderr goes to logw.
func startProc(name, bin string, args []string, logw io.Writer) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = logw
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, grew: make(chan struct{}), readDone: make(chan struct{}), waitDone: make(chan struct{})}
	live.Lock()
	defer live.Unlock()
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.procs[p] = true
	go p.read(out)
	go func() {
		<-p.readDone // the pipe must drain before Wait closes it
		p.waitErr = cmd.Wait()
		if st := cmd.ProcessState; st != nil {
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
				p.maxRSSKB = ru.Maxrss // includes reaped descendants
			}
		}
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.waitDone)
	}()
	return p, nil
}

func (p *proc) read(r io.Reader) {
	defer close(p.readDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		l := line{at: time.Now(), text: sc.Text()}
		p.mu.Lock()
		p.lines = append(p.lines, l)
		close(p.grew)
		p.grew = make(chan struct{})
		p.mu.Unlock()
	}
	io.Copy(io.Discard, r)
}

// Lines returns a copy of every line read so far.
func (p *proc) Lines() []line {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]line(nil), p.lines...)
}

// waitLine blocks until a stdout line starts with prefix and returns
// the rest of it.
func (p *proc) waitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if rest, ok := strings.CutPrefix(p.lines[seen].text, prefix); ok {
				p.mu.Unlock()
				return rest, nil
			}
		}
		grew := p.grew
		p.mu.Unlock()
		select {
		case <-grew:
		case <-p.waitDone:
			return "", fmt.Errorf("%s exited before printing %q: %v", p.name, prefix, p.waitErr)
		case <-deadline:
			return "", fmt.Errorf("%s printed no %q within %v", p.name, prefix, timeout)
		}
	}
}

// wait blocks until the process exits; past timeout its group is
// killed and an error returned.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.waitDone:
		return p.waitErr
	case <-time.After(timeout):
		p.kill()
		<-p.waitDone
		return fmt.Errorf("%s still running after %v; killed", p.name, timeout)
	}
}

// stop asks the process to drain with SIGTERM and waits for it.
func (p *proc) stop(timeout time.Duration) error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	return p.wait(timeout)
}

// kill SIGKILLs the process group.
func (p *proc) kill() { syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) }

// killAll kills every live process group and waits for the reaping.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
	for _, p := range ps {
		<-p.waitDone
	}
}

// logFile opens (appending) the log the children's stderr goes to.
func logFile(work, name string) (*os.File, error) {
	return os.OpenFile(work+"/"+name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
