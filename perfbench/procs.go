package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process the benchmark started: a ctsand, a `ctsan run`
// (with its shard subprocesses, which share its process group) or a
// `ctsan worker`. Its combined output is kept in memory so the benchmark
// can wait for log lines.
type child struct {
	name string
	cmd  *exec.Cmd
	out  *logBuf
	done chan struct{} // closed once the process has been reaped
	err  error         // exit error, valid after done

	started, exitedAt time.Time // exitedAt is valid after done
}

// logBuf collects a child's output and wakes waiters on every write.
type logBuf struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	changed chan struct{}
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	close(l.changed)
	l.changed = make(chan struct{})
	return len(p), nil
}

// snapshot returns the output so far and a channel closed on the next
// write.
func (l *logBuf) snapshot() (string, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String(), l.changed
}

// start launches bin/<prog> with args in its own process group. The
// child gets SIGKILL if the benchmark dies, and TMPDIR inside the run's
// scratch directory.
func (b *bench) start(name, prog string, args ...string) (*child, error) {
	cmd := exec.Command(filepath.Join(b.bin, prog), args...)
	out := &logBuf{changed: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = out, out
	cmd.Env = append(os.Environ(), "TMPDIR="+b.tmp)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, out: out, done: make(chan struct{}), started: time.Now()}
	go func() {
		c.err = cmd.Wait()
		c.exitedAt = time.Now()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			b.mu.Lock()
			b.childRSS = max(b.childRSS, ru.Maxrss)
			b.mu.Unlock()
		}
		close(c.done)
	}()
	b.mu.Lock()
	b.children = append(b.children, c)
	b.mu.Unlock()
	return c, nil
}

// waitOutput waits until the child's output matches re and returns the
// first submatch (or the whole match).
func (c *child) waitOutput(ctx context.Context, re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		text, changed := c.out.snapshot()
		if m := re.FindStringSubmatch(text); m != nil {
			return m[len(m)-1], nil
		}
		select {
		case <-changed:
		case <-c.done:
			text, _ := c.out.snapshot()
			if m := re.FindStringSubmatch(text); m != nil {
				return m[len(m)-1], nil
			}
			return "", fmt.Errorf("%s exited before logging %q: %v\n%s", c.name, re, c.err, tail(text))
		case <-deadline.C:
			return "", fmt.Errorf("%s did not log %q within %v", c.name, re, timeout)
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// wait waits up to timeout for the child to exit on its own. A child
// still alive afterwards, or when ctx ends, is killed with its process
// group, and that is an error: the run counts it as failed.
func (c *child) wait(ctx context.Context, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-c.done:
		if c.err != nil {
			text, _ := c.out.snapshot()
			return fmt.Errorf("%s: %v\n%s", c.name, c.err, tail(text))
		}
		return nil
	case <-timer.C:
		c.kill()
		return fmt.Errorf("%s still running after %v; killed", c.name, timeout)
	case <-ctx.Done():
		c.kill()
		return fmt.Errorf("%s: %w; killed", c.name, ctx.Err())
	}
}

// stop asks the child to exit (SIGTERM, which ctsand answers with a
// graceful drain) and waits for it like wait. It takes no context: it
// also runs when the run's context has ended.
func (c *child) stop(timeout time.Duration) error {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
	}
	return c.wait(context.Background(), timeout)
}

// kill SIGKILLs the child's process group and reaps the child.
func (c *child) kill() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	<-c.done
}

// forgetExited drops the children that have exited, with their output,
// so that the benchmark's memory does not grow with the number of
// batches. While the run has a problem they are kept for reapAll to
// write out.
func (b *bench) forgetExited() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) > 0 {
		return
	}
	kept := b.children[:0]
	for _, c := range b.children {
		select {
		case <-c.done:
		default:
			kept = append(kept, c)
		}
	}
	clear(b.children[len(kept):])
	b.children = kept
}

// reapAll kills every child still running at the end of a run; any such
// child is a failure of the run.
func (b *bench) reapAll() {
	b.mu.Lock()
	kids := b.children
	b.children = nil
	b.mu.Unlock()
	if len(b.problems) > 0 {
		// Keep every child's output beside the metrics for diagnosis.
		for i, c := range kids {
			text, _ := c.out.snapshot()
			name := fmt.Sprintf("child-%03d-%s.log", i, strings.ReplaceAll(c.name, " ", "-"))
			_ = os.WriteFile(filepath.Join(b.out, name), []byte(text), 0o644)
		}
	}
	for _, c := range kids {
		select {
		case <-c.done:
			continue
		default:
		}
		c.kill()
		b.fail("%s outlived its phase and was killed", c.name)
	}
}

// tail returns the last few lines of a log for error messages.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}
