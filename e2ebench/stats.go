package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"krum/distsgd"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" estimator). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// digest accumulates the stable-JSON bytes of results in order; two
// runs that produce byte-identical results produce equal digests.
type digest struct{ h []byte }

func (d *digest) add(res *distsgd.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	d.addBytes(b)
	return nil
}

func (d *digest) addBytes(b []byte) {
	sum := sha256.New()
	sum.Write(d.h)
	sum.Write(b)
	d.h = sum.Sum(nil)
}

func (d *digest) String() string { return hex.EncodeToString(d.h) }

// procStatus reads one "Key:   value kB" field of /proc/<pid>/status
// and returns it in MiB.
func procStatusMiB(pid, key string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s of pid %s: %w", key, pid, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", key, pid)
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 for the
// /proc/<pid>/stat time fields on every architecture Go supports.
const clockTicksPerSecond = 100

// procCPUms returns the user+system CPU time of a process from
// /proc/<pid>/stat, in milliseconds.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3 (state).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat times", pid)
	}
	return (utime + stime) * 1000 / clockTicksPerSecond, nil
}
