package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// maxWorkers caps W: the workloads are sized for a small box, and a fixed
// cap keeps results from machines with more CPUs comparable.
const maxWorkers = 4

// environment is recorded with every result so that two result files can
// be told apart before they are compared.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CgroupCPU  string `json:"cgroup_cpu_max"`
	Workers    int    `json:"workers"`
	GitCommit  string `json:"git_commit"`
}

func readEnvironment() environment {
	raw, quota := cgroupCPUMax("/sys/fs/cgroup")
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CgroupCPU:  raw,
		Workers:    workerCount(runtime.NumCPU(), quota),
		GitCommit:  gitCommit(),
	}
}

// workerCount is W = min(nproc, cgroup CPU quota, maxWorkers), at least 1.
// go 1.24 sizes GOMAXPROCS from nproc alone, so the quota is applied here.
func workerCount(numCPU int, quota float64) int {
	w := min(numCPU, maxWorkers)
	if quota > 0 {
		w = min(w, int(math.Floor(quota)))
	}
	return max(w, 1)
}

// cgroupCPUMax reads the CPU quota of the cgroup mounted at root: the raw
// cpu.max line (cgroup v2) or quota/period pair (v1), and the quota in
// CPUs, zero when there is none or it cannot be read.
func cgroupCPUMax(root string) (raw string, cpus float64) {
	if data, err := os.ReadFile(filepath.Join(root, "cpu.max")); err == nil {
		raw = strings.TrimSpace(string(data))
		if f := strings.Fields(raw); len(f) == 2 && f[0] != "max" {
			return raw, quotient(f[0], f[1])
		}
		return raw, 0
	}
	q, err1 := os.ReadFile(filepath.Join(root, "cpu", "cpu.cfs_quota_us"))
	p, err2 := os.ReadFile(filepath.Join(root, "cpu", "cpu.cfs_period_us"))
	if err1 != nil || err2 != nil {
		return "", 0
	}
	qs, ps := strings.TrimSpace(string(q)), strings.TrimSpace(string(p))
	return qs + " " + ps, quotient(qs, ps)
}

func quotient(a, b string) float64 {
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil || x <= 0 || y <= 0 {
		return 0
	}
	return x / y
}

// gitCommit is HEAD of the checkout the benchmark runs in, or "unknown"
// outside a git work tree.  The search for .git stops at the working
// directory's parent, so a repository further up is never consulted.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
