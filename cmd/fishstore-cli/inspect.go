package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"fishstore/internal/introspect"
	"fishstore/internal/psf"
)

// inspectMain implements `fishstore-cli inspect`: a point-in-time view of a
// live store through its /debug/fishstore/ introspection endpoints — PSF
// lifecycle state and coverage intervals (Fig 7), hash-table occupancy and
// per-PSF chain-length histograms (§6.3), and the last adaptive-scan
// decisions with the Φ cost-model inputs behind them (§7.2 / Fig 9).
//
//	fishstore-cli serve -metrics-addr :9187 &
//	fishstore-cli inspect -addr localhost:9187
//	fishstore-cli inspect -addr localhost:9187 -flight
//
// Exit status: 0 = ok, 1 = an endpoint could not be fetched or decoded.
func inspectMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", "localhost:9187", "store observability address (host:port or URL)")
		flight = fs.Bool("flight", false, "also dump the crash flight recorder")
		lastN  = fs.Int("n", 8, "scan decisions to show (0 = all retained)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var status psf.RegistryStatus
	if err := fetchJSON(client, base+"/debug/fishstore/psf", &status); err != nil {
		fmt.Fprintf(stderr, "fishstore-cli inspect: %v\n", err)
		return 1
	}
	printPSFStatus(stdout, status)

	var index introspect.IndexSnapshot
	if err := fetchJSON(client, base+"/debug/fishstore/index", &index); err != nil {
		fmt.Fprintf(stderr, "fishstore-cli inspect: %v\n", err)
		return 1
	}
	printIndex(stdout, index)

	var scans introspect.ScanLog
	if err := fetchJSON(client, base+"/debug/fishstore/scan", &scans); err != nil {
		fmt.Fprintf(stderr, "fishstore-cli inspect: %v\n", err)
		return 1
	}
	printScans(stdout, scans, *lastN)

	if *flight {
		var fl introspect.FlightSnapshot
		if err := fetchJSON(client, base+"/debug/fishstore/flight", &fl); err != nil {
			fmt.Fprintf(stderr, "fishstore-cli inspect: %v\n", err)
			return 1
		}
		printFlight(stdout, fl)
	}
	return 0
}

// fetchJSON GETs url and decodes the body. Debug endpoints answer errors as
// {"error": ...} with a non-200 status; surface that text when present.
func fetchJSON(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", url, e.Error)
		}
		return fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("%s: decoding: %w", url, err)
	}
	return nil
}

func fmtAddr(a uint64) string {
	if a == math.MaxUint64 {
		return "open"
	}
	return fmt.Sprintf("%d", a)
}

func printPSFStatus(w io.Writer, st psf.RegistryStatus) {
	fmt.Fprintf(w, "PSF registry: state=%s version=%d active=%d\n", st.State, st.Version, st.Active)
	if len(st.Fields) > 0 {
		fmt.Fprintf(w, "  fields of interest: %s\n", strings.Join(st.Fields, ", "))
	}
	for _, p := range st.PSFs {
		live := "inactive"
		if p.Active {
			live = "active"
		}
		fmt.Fprintf(w, "  [%d] %s (%s, %s", p.ID, p.Name, p.Kind, live)
		if p.Shards > 1 {
			fmt.Fprintf(w, ", %d shards", p.Shards)
		}
		fmt.Fprintf(w, ")")
		if len(p.Fields) > 0 {
			fmt.Fprintf(w, " fields=%s", strings.Join(p.Fields, ","))
		}
		for _, iv := range p.Intervals {
			fmt.Fprintf(w, " [%d,%s)", iv.From, fmtAddr(iv.To))
		}
		fmt.Fprintln(w)
	}
}

func printIndex(w io.Writer, ix introspect.IndexSnapshot) {
	fmt.Fprintf(w, "\nHash index: %d buckets, %d/%d entries used (load %.3f), %d tentative, overflow %d/%d, %s\n",
		ix.Buckets, ix.UsedEntries, ix.Entries, ix.LoadFactor, ix.TentativeEntries,
		ix.OverflowUsed, ix.OverflowCap, fmtBytes(int64(ix.TableBytes)))
	if len(ix.BucketFill) > 0 {
		fmt.Fprintf(w, "  bucket fill (0..7 used slots):")
		for k, n := range ix.BucketFill {
			if n > 0 {
				fmt.Fprintf(w, " %d:%d", k, n)
			}
		}
		fmt.Fprintln(w)
	}
	c := ix.Chains
	if c == nil {
		fmt.Fprintln(w, "  no chain sample yet")
		return
	}
	fmt.Fprintf(w, "  chain sample (%.1fms): %d chains, %d links (%d in-mem, %d on-device)",
		c.ElapsedSeconds*1000, c.Chains, c.Links, c.InMemLinks, c.OnDeviceLinks)
	if c.TruncatedChains > 0 || c.SkippedChains > 0 {
		fmt.Fprintf(w, ", %d truncated, %d skipped", c.TruncatedChains, c.SkippedChains)
	}
	fmt.Fprintln(w)
	for _, pc := range c.PerPSF {
		name := pc.Name
		if name == "" {
			name = fmt.Sprintf("psf %d", pc.PSFID)
		}
		fmt.Fprintf(w, "    [%d] %s: %d chains, %d links, mean %.1f, max %d —",
			pc.PSFID, name, pc.Chains, pc.Links, pc.MeanLen, pc.MaxLen)
		for _, b := range pc.Lengths {
			fmt.Fprintf(w, " ≤%d:%d", b.Le, b.Count)
		}
		fmt.Fprintln(w)
	}
}

func printScans(w io.Writer, sl introspect.ScanLog, lastN int) {
	fmt.Fprintf(w, "\nScan decisions: %d total, %d retained (cap %d, %d dropped)\n",
		sl.Total, len(sl.Decisions), sl.Capacity, sl.Dropped)
	decisions := sl.Decisions
	if lastN > 0 && len(decisions) > lastN {
		decisions = decisions[len(decisions)-lastN:]
	}
	for _, d := range decisions {
		fmt.Fprintf(w, "  #%d %s psf=%d [%d,%d) %.0f%% indexed (%d segs)",
			d.Seq, d.Mode, d.PSF, d.From, d.To, d.IndexedFraction*100, len(d.Segments))
		fmt.Fprintf(w, " Φ=%s (bw_seq=%s/s lat_rand=%.0fµs c_sys=%.1fµs)",
			fmtBytes(int64(d.PhiBytes)), fmtBytes(int64(d.BwSeqBytesPerSec)),
			d.RandLatencySeconds*1e6, d.SyscallCostSeconds*1e6)
		fmt.Fprintf(w, " matched=%d visited=%d hops=%d ios=%d read=%s in %.2fms",
			d.Matched, d.Visited, d.IndexHops, d.IOs, fmtBytes(d.ReadBytes), d.ElapsedSeconds*1000)
		if d.Stopped {
			fmt.Fprintf(w, " (stopped)")
		}
		fmt.Fprintln(w)
	}
}

func printFlight(w io.Writer, fl introspect.FlightSnapshot) {
	fmt.Fprintf(w, "\nFlight recorder: %d/%d events retained (%d total, %d dropped)\n",
		len(fl.Events), fl.Capacity, fl.Total, fl.Dropped)
	for _, e := range fl.Events {
		fmt.Fprintf(w, "  %v %v", e["ts"], e["event"])
		keys := make([]string, 0, len(e))
		for k := range e {
			if k != "ts" && k != "event" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%v", k, e[k])
		}
		fmt.Fprintln(w)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
