package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"strings"
	"time"
)

// host is the fingerprint printed with every run. Host-time figures do
// not carry between machines, so each result names the machine it was
// measured on and carries calibNs, the time of a fixed Go loop run in
// the same process: a slower calibNs with an unchanged program means
// the host slowed, not the program.
type host struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	CalibNs    float64
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibNs:    calibrate(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; on hosts
// without it the model is reported as unknown.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate is the median of seven timings of one fixed loop: 64
// SHA-256 hashes of a 16 KiB buffer, about 1 MiB hashed.
func calibrate() float64 {
	buf := make([]byte, 16<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var ts []float64
	var sink [32]byte
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			buf[0] = sink[0]
			sink = sha256.Sum256(buf)
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ts)
}
