package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// Record is one run's result with the stamp that makes it comparable
// later: what was measured, on which commit and machine, from which
// inputs. -out appends records as JSON lines, so a file of them is a
// trajectory.
type Record struct {
	Workload       string   `json:"workload"`
	Trace          bool     `json:"trace"`
	Seed           int64    `json:"seed"`
	Scale          float64  `json:"scale"`
	Seconds        float64  `json:"seconds"`
	Commit         string   `json:"commit"`
	GoVersion      string   `json:"go"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	NumCPU         int      `json:"num_cpu"`
	LoadGenerators int      `json:"load_generators"`
	Nodes          int      `json:"nodes"`
	Edges          int      `json:"edges"`
	InputChecksum  uint64   `json:"input_checksum"`
	SpillFS        string   `json:"spill_fs"`
	Attempted      int64    `json:"attempted"`
	Failed         int64    `json:"failed"`
	Metrics        []Metric `json:"metrics"`
}

func newRecord(cfg runConfig, traced bool, res *outcome) Record {
	return Record{
		Workload:       cfg.workload.name,
		Trace:          traced,
		Seed:           cfg.seed,
		Scale:          cfg.scale,
		Seconds:        cfg.seconds,
		Commit:         gitCommit(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		LoadGenerators: loadGenerators,
		Nodes:          res.nodes,
		Edges:          res.edges,
		InputChecksum:  res.checksum,
		SpillFS:        fsType(cfg.workDir),
		Attempted:      res.attempted,
		Failed:         res.failed,
		Metrics:        res.metrics,
	}
}

// gitCommit finds the commit being measured: the build's VCS stamp when
// there is one, else the checkout's HEAD, else "unknown" (the driver's
// checkouts are not git repositories).
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// fsType names the filesystem under dir, where the spill files live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for dir != "" {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent
		} else {
			return "unknown"
		}
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func appendRecord(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
