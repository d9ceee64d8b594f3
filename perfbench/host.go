package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord identifies the machine a run measured. Only runs whose host
// records agree are comparable.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	AVX512F    bool   `json:"avx512f"`
	GoVersion  string `json:"go_version"`
	// DataFS is the filesystem type under the benchmark's data directory,
	// where the durable workload's journal and checkpoints live.
	DataFS string `json:"data_fs"`
}

func readHost(dataDir string) hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DataFS:     fsType(dataDir),
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		h.CPUModel = "unknown"
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if h.CPUModel == "" {
				h.CPUModel = strings.TrimSpace(val)
			}
		case "flags":
			for _, fl := range strings.Fields(val) {
				h.AVX2 = h.AVX2 || fl == "avx2"
				h.AVX512F = h.AVX512F || fl == "avx512f"
			}
		}
	}
	if h.CPUModel == "" {
		h.CPUModel = "unknown"
	}
	return h
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime), nil
}

// rssMiB is the process's current resident set, from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// rssSampler reads the resident set at a fixed interval while it runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

// sampleRSS starts sampling every interval until finish.
func sampleRSS(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			v, err := rssMiB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, v)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the 99th percentile of its
// samples: the resident set the process stayed under for all but 1% of
// the time. The single highest sample depends on where one garbage
// collection fell and varies far more from run to run.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return percentile(s.samples, 0.99), s.err
}
