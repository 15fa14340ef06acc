package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// resetPeakRSS asks the kernel to restart this process's VmHWM from its
// current resident size, so a peak read afterwards covers only what ran in
// between. Where the kernel refuses, the peak keeps covering the set-up too.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssMB returns a resident-set field (VmHWM = peak, VmRSS = current) of a
// process in MB, read from its "Name:  N kB" line in /proc/<pid>/status.
func rssMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		fs := strings.Fields(rest)
		if len(fs) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fs[0], 64)
		return kb / 1024, err
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// cpuSeconds returns the user+system CPU time a process has used so far.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis, after which utime and stime are the 12th and
	// 13th.
	i := strings.LastIndexByte(string(data), ')')
	fs := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fs) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fs[11], 64)
	stime, err2 := strconv.ParseFloat(fs[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on Linux
	return (utime + stime) / clockTicks, nil
}

// listenPort finds the TCP port a process is listening on, by matching the
// socket inodes among its open files against the kernel's table of
// listening sockets. It lets the child bind port 0 — a free port chosen at
// bind time — and the harness learn which one it got.
func listenPort(pid int) (int, bool) {
	inodes := map[string]bool{}
	fds, _ := filepath.Glob(fmt.Sprintf("/proc/%d/fd/*", pid))
	for _, fd := range fds {
		if link, err := os.Readlink(fd); err == nil {
			if ino, ok := strings.CutPrefix(link, "socket:["); ok {
				inodes[strings.TrimSuffix(ino, "]")] = true
			}
		}
	}
	for _, tbl := range []string{"tcp", "tcp6"} {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/net/%s", pid, tbl))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			fs := strings.Fields(line)
			// sl local rem st ... inode is field 9; state 0A is LISTEN.
			if len(fs) < 10 || fs[3] != "0A" || !inodes[fs[9]] {
				continue
			}
			_, hexPort, ok := strings.Cut(fs[1], ":")
			if !ok {
				continue
			}
			if port, err := strconv.ParseInt(hexPort, 16, 32); err == nil {
				return int(port), true
			}
		}
	}
	return 0, false
}
