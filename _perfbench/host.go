package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host is recorded with every result: a number means little without
// the machine it was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	// StoreFS is the filesystem the servers' durable stores sit on.
	StoreFS string `json:"store_fs"`
}

// fsNames maps statfs(2) magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func hostRecord(storeDir string) (host, error) {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(storeDir, &st); err != nil {
		return h, fmt.Errorf("statfs %s: %w", storeDir, err)
	}
	h.StoreFS = fsNames[int64(st.Type)]
	if h.StoreFS == "" {
		h.StoreFS = fmt.Sprintf("0x%x", st.Type)
	}
	return h, nil
}
