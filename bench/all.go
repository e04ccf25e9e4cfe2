package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const loopbackNote = "loopback only; disk latency is the sandbox's page cache"

// environment is stamped on every result set.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	WindowS    int    `json:"window_s"`
	TracedOps  int    `json:"traced_ops"`
	TempDir    string `json:"temp_dir"`
	TempFS     string `json:"temp_dir_filesystem"`
	Note       string `json:"note"`
}

// resultSet is what -out writes and -compare reads: one untraced and one
// traced run of every workload.
type resultSet struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func (s *resultSet) find(workload string, traced bool) *result {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func stampEnvironment(seed int64, seconds int) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: seed, Clients: defaultClients,
		WindowS: seconds, TracedOps: tracedOps, TempDir: os.TempDir(), Note: loopbackNote,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	env.TempFS = filesystemOf(env.TempDir)
	return env
}

// filesystemOf names the filesystem type mounted at the longest prefix of
// dir, from /proc/mounts; "unknown" where that cannot be read.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// runAll runs every workload, untraced then traced, each run in a fresh
// subprocess of this binary: its own heap, buffer pools and connection
// pools. It prints every metric, checks the workload contrasts the design
// relies on, and writes the set to out.
func runAll(seed int64, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: stampEnvironment(seed, seconds)}
	fmt.Printf("stackbench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d clients, %d s window, temp dir on %s\n%s\n",
		set.Env.Commit, set.Env.GoVersion, set.Env.NumCPU, set.Env.GoMaxProcs, seed, defaultClients, seconds, set.Env.TempFS, loopbackNote)
	var failures []error
	for _, w := range workloadSpecs {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-detail")
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			body, last := splitLastLine(stdout)
			os.Stdout.Write(body)
			var line driverLine
			if err := json.Unmarshal(last, &line); err != nil || line.Detail == nil {
				return fmt.Errorf("%s (trace %d) printed no result: %v", w.Name, trace, runErr)
			}
			set.Runs = append(set.Runs, line.Detail)
			if runErr != nil {
				failures = append(failures, fmt.Errorf("%s (trace %d): %d of %d operations failed", w.Name, trace, line.Failed, line.Attempted))
			}
		}
	}
	for _, err := range contrastCheck(&set) {
		failures = append(failures, fmt.Errorf("workload contrast: %w", err))
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	return errors.Join(failures...)
}

// splitLastLine separates the last non-empty line of out from what
// precedes it.
func splitLastLine(out []byte) (body, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}
