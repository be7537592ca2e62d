package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpas/internal/stats"
	"hpas/internal/xrand"
)

// environment records where a run happened, so a reader comparing two
// reports can tell a different machine from a different program.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataDir    string `json:"data_dir"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readEnvironment(dataDir string) environment {
	return environment{
		Commit:     commitOf("."),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDir:    dataDir,
		DataDirFS:  fsTypeOf(dataDir),
	}
}

// commitOf asks git for the checkout's commit; the benchmark driver's
// checkouts are not repositories, so "unknown" is a normal answer.
func commitOf(repoRoot string) string {
	if _, err := os.Stat(filepath.Join(repoRoot, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", repoRoot, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypeOf names the filesystem holding dir. Journal terminal records
// fsync, so whether this is tmpfs or a device decides what the
// journaling workloads can see of fsync cost.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// hostKernel is the probe the benchmark reads its host with: a fixed,
// allocation-free slice of the benchmark's own code, so a change to the
// repository leaves its instructions alone. About 70 % of a slice is a
// dependent ALU chain; the rest is pointer chasing through 2 MB, a sort,
// map lookups and number formatting, so the slice is not blind to what a
// neighbour does to the caches. The work is constant, never calibrated
// per run: a slower host must read as a slower probe.
type hostKernel struct {
	next []int32 // one cycle through every element, in shuffled order
	vals []float64
	tmp  []float64
	keys map[int]int
	buf  []byte
	sink uint64    // keeps the compiler from deleting the work
	last time.Time // when the latest slice ended
}

const (
	kernelSpins = 480_000
	kernelChase = 5_000
	kernelSort  = 512
	kernelKeys  = 500
	// kernelReferenceMS is the nominal slice: about its quiet decile on
	// the reference box (2 vCPU Xeon @ 2.10 GHz; 0.94–1.18 ms seen).
	// Timing metrics are divided by the run's own quiet decile over it,
	// so they read as time on a host that runs a slice in 1 ms.
	kernelReferenceMS = 1.0
	// probeEvery is the step time that must pass between two slices
	// interleaved with a workload's cycle: a slice per 25 ms keeps the
	// probe's share of a run near 6 %.
	probeEvery = 25 * time.Millisecond
)

func newHostKernel() *hostKernel {
	k := &hostKernel{
		next: make([]int32, 1<<19),
		vals: make([]float64, kernelSort),
		tmp:  make([]float64, kernelSort),
		keys: make(map[int]int, kernelKeys),
		buf:  make([]byte, 0, 64),
	}
	rng := xrand.New(0x6b65726e)
	perm := rng.Perm(len(k.next))
	for i, p := range perm {
		k.next[p] = int32(perm[(i+1)%len(perm)])
	}
	for i := range k.vals {
		k.vals[i] = rng.Uniform(0, 1e6)
	}
	for i := 0; i < kernelKeys; i++ {
		k.keys[i*7919] = i
	}
	return k
}

// slice runs one slice and returns how long it took, in ms. The memory
// the slice walks is touched once before the clock starts, so a slice
// taken between two steps of a cache-hungry workload is not charged for
// what the workload evicted: the probe reads the host, not the
// program's footprint.
func (k *hostKernel) slice() float64 {
	p := int32(0)
	for i := 0; i < kernelChase; i++ {
		p = k.next[p]
	}
	for i := 0; i < kernelKeys; i++ {
		p += int32(k.keys[i*7919])
	}
	k.sink += uint64(p)

	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < kernelSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p = 0
	for i := 0; i < kernelChase; i++ {
		p = k.next[p]
	}
	copy(k.tmp, k.vals)
	sort.Float64s(k.tmp)
	for i := 0; i < kernelKeys; i++ {
		k.buf = strconv.AppendFloat(k.buf[:0], k.tmp[i]*float64(k.keys[i*7919]+1), 'g', -1, 64)
	}
	k.sink += x + uint64(p) + uint64(len(k.buf))
	k.last = time.Now()
	return ms(k.last.Sub(t0))
}

// due reports whether probeEvery has passed since the latest slice.
func (k *hostKernel) due() bool { return time.Since(k.last) >= probeEvery }

// probe runs slices back to back for d and returns their durations. It
// measures the host, not the program: the same slices before, during
// and after every workload.
func (k *hostKernel) probe(d time.Duration) []float64 {
	var slices []float64
	for begin := time.Now(); time.Since(begin) < d; {
		slices = append(slices, k.slice())
	}
	return slices
}

// hostFactor is how much slower than the reference the host ran the
// probe: the quiet decile of the slices over the reference's. Exponent
// one and nothing fitted: a host phase that slows everything by a share
// (clock, steal) slows the probe by the same share. What a neighbour
// does to memory or to wake-ups between the vCPUs the slice mostly does
// not see, and that part of the host stays in the timings (README,
// "Host factor" and "Findings").
func hostFactor(slices []float64) float64 {
	if len(slices) == 0 {
		return 1
	}
	return quietDecile(slices) / kernelReferenceMS
}

// probeResult summarises the probe slices taken around and during one
// workload.
type probeResult struct {
	P10MS     float64 `json:"p10_ms"`
	P50MS     float64 `json:"p50_ms"`
	QuietFrac float64 `json:"quiet_frac"` // share of slices within 5 % of the fastest
	Slices    int     `json:"slices"`
	// Factor is the host factor of the slices interleaved with the
	// timed cycles, the one the timing metrics were scaled by.
	Factor float64 `json:"factor"`
}

// summariseProbe reports how steady the host ran the slices.
func summariseProbe(slices []float64) probeResult {
	if len(slices) == 0 {
		return probeResult{}
	}
	fastest := stats.Min(slices)
	quiet := 0
	for _, s := range slices {
		if s <= fastest*1.05 {
			quiet++
		}
	}
	return probeResult{
		P10MS:     quietDecile(slices),
		P50MS:     stats.Median(slices),
		QuietFrac: float64(quiet) / float64(len(slices)),
		Slices:    len(slices),
	}
}
