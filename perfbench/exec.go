package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// execution is one run of a workload's command.
type execution struct {
	Wall    time.Duration
	CPU     time.Duration // user + system, the command and its reaped workers
	PeakRSS int64         // bytes, the largest of the command and its workers
	// Digests maps each output the command produced (files in its output
	// directory, plus "stdout" where the workload compares it) to its
	// SHA-256.
	Digests map[string]string
	Bytes   int64 // total size of the output files
	Err     error // non-zero exit, stall, or failed output check
}

// runCommand runs argv in its own process group with the given working
// directory, and kills the whole group if it outlives timeout. It
// returns the command's standard output; resource figures come from the
// wait4 rusage, which on Linux folds in every descendant the command
// reaped, so a coordinator's workers count too.
func runCommand(ctx context.Context, argv []string, dir string, timeout time.Duration) (execution, []byte) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = dir
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second

	start := time.Now()
	err := cmd.Run()
	ex := execution{Wall: time.Since(start)}
	if cmd.Process != nil {
		// Nothing of the group may outlive the run, on any exit path; the
		// group is usually gone already (ESRCH).
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			ex.CPU = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
			ex.PeakRSS = ru.Maxrss * 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		ex.Err = fmt.Errorf("%s stalled: killed after %v", filepath.Base(argv[0]), timeout)
	case err != nil:
		msg := bytes.TrimSpace(stderr.Bytes())
		msg = msg[max(0, len(msg)-2048):] // the end explains the failure
		ex.Err = fmt.Errorf("%s: %v: %s", filepath.Base(argv[0]), err, msg)
	}
	return ex, stdout.Bytes()
}

// digestDir hashes every regular file in dir, keyed by file name, and
// returns their total size.
func digestDir(dir string) (map[string]string, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]string{}
	var total int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		d, n, err := digestFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, 0, err
		}
		out[e.Name()] = d
		total += n
	}
	return out, total, nil
}

func digestFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// compareDigests checks that got holds every key of want with the same
// digest, naming the first mismatch in sorted key order.
func compareDigests(what string, want, got map[string]string) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("%s: %s missing", what, k)
		}
		if err := equalDigest(what+": "+k, want[k], g); err != nil {
			return err
		}
	}
	return nil
}

// equalDigest checks one output's digest against the expected one.
func equalDigest(what, want, got string) error {
	if got != want {
		return fmt.Errorf("%s: digest %.12s, want %.12s", what, got, want)
	}
	return nil
}
