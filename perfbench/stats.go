package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the user+sys CPU time this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rssSampler tracks the process's peak resident set size over a region
// by polling /proc/self/statm, so the set-up's garbage does not count.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

const rssPoll = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(rssPoll)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = math.Max(peak, residentMB())
			case <-s.stopc:
				s.done <- math.Max(peak, residentMB())
				return
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.done
}

// residentMB reads the current resident set size, 0 where /proc is
// unavailable.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// hashStrings digests a sequence of strings (length-prefixed, so
// boundaries count) into a short hex fingerprint.
func hashStrings(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		h.Write([]byte(strconv.Itoa(len(s))))
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks is one sample of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	total, steal uint64
}

// readCPUTicks samples /proc/stat; ok is false where it is unavailable.
func readCPUTicks() (cpuTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		// Fields after steal (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of all CPU ticks between a and b that the
// hypervisor gave to other guests.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
