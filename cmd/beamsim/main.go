// Command beamsim runs matched ChipIR/ROTAX beam campaigns on a device and
// prints the measured cross sections and fast:thermal ratios — the core
// measurement protocol of the paper.
//
// Usage:
//
//	beamsim [-device K20 | -device-file my.json] [-workloads MxM,LUD]
//	        [-fast 600] [-thermal 3600] [-boost 50] [-seed N] [-shards N]
//	        [-bias-thermal F] [-bias-epithermal F] [-bias-fast F]
//	        [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	        [-dump-device path]   # write a catalog device as a JSON template
//
// The -bias-* flags opt the campaigns into importance-sampled transport:
// the named band is oversampled by the given factor and every draw carries
// a likelihood weight, so the printed cross sections stay unbiased while
// rare channels (thermal-band DUEs under ChipIR, say) collect far more
// statistics. See DESIGN.md §14.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"neutronsim"
	"neutronsim/internal/device"
	"neutronsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("beamsim: fatal", "error", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("beamsim", flag.ContinueOnError)
	deviceName := fs.String("device", "K20", "device to irradiate (see -list)")
	deviceFile := fs.String("device-file", "", "load a custom device model from JSON instead of the catalog")
	dumpDevice := fs.String("dump-device", "", "write the selected catalog device as a JSON template and exit")
	workloads := fs.String("workloads", "", "comma-separated benchmark list (default: paper assignment)")
	fastSeconds := fs.Float64("fast", 600, "ChipIR beam seconds")
	thermalSeconds := fs.Float64("thermal", 3600, "ROTAX beam seconds")
	boost := fs.Float64("boost", 50, "sensitivity boost (ratios preserved; sigmas corrected)")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "concurrent campaigns, and shard executors per campaign (never affects results)")
	biasThermal := fs.Float64("bias-thermal", 0, "thermal-band oversampling factor (0 = exact transport)")
	biasEpithermal := fs.Float64("bias-epithermal", 0, "epithermal-band oversampling factor (0 = exact transport)")
	biasFast := fs.Float64("bias-fast", 0, "fast-band oversampling factor (0 = exact transport)")
	seed := fs.Uint64("seed", 1, "campaign seed")
	list := fs.Bool("list", false, "list devices and benchmarks, then exit")
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.Start("beamsim"); err != nil {
		return err
	}
	defer obs.Close()
	if *list {
		fmt.Println("devices:")
		for _, d := range neutronsim.Devices() {
			fmt.Printf("  %-12s %s %s (%s)\n", d.Name, d.Vendor, d.Process, d.Kind)
		}
		fmt.Println("benchmarks:", strings.Join(neutronsim.Workloads(), ", "))
		return nil
	}
	var d *neutronsim.Device
	if *deviceFile != "" {
		f, err := os.Open(*deviceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if d, err = device.Load(f); err != nil {
			return err
		}
	} else {
		var err error
		if d, err = neutronsim.DeviceByName(*deviceName); err != nil {
			return err
		}
	}
	if *dumpDevice != "" {
		f, err := os.Create(*dumpDevice)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := device.Save(f, d); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dumpDevice)
		return nil
	}
	var wls []string
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			wls = append(wls, strings.TrimSpace(w))
		}
	}
	budget := neutronsim.Budget{
		FastSeconds:    *fastSeconds,
		ThermalSeconds: *thermalSeconds,
		Boost:          *boost,
		Shards:         *shards,
	}
	if *biasThermal != 0 || *biasEpithermal != 0 || *biasFast != 0 {
		bias := &neutronsim.Bias{Thermal: *biasThermal, Epithermal: *biasEpithermal, Fast: *biasFast}
		if err := bias.Validate(); err != nil {
			return err
		}
		budget.Bias = bias
	}
	a, err := neutronsim.Assess(d, wls, budget, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("device %s (%s, %s)\n", d.Name, d.Vendor, d.Process)
	fmt.Printf("%-10s %-8s %10s %10s %10s %10s\n",
		"benchmark", "beam", "runs", "SDC", "DUE", "σ_SDC[cm²]")
	for _, wl := range a.Workloads {
		pair := a.PerWorkload[wl]
		for _, r := range []*neutronsim.BeamResult{pair.Fast, pair.Thermal} {
			fmt.Printf("%-10s %-8s %10d %10d %10d %10.3g\n",
				wl, r.Beam, r.Runs, r.SDC, r.DUE, r.SDCCrossSection.Rate / *boost)
		}
	}
	sdc, sdcLo, sdcHi := a.SDCRatio()
	due, dueLo, dueHi := a.DUERatio()
	fmt.Println()
	if !math.IsNaN(sdc) {
		fmt.Printf("fast:thermal SDC ratio = %.2f  [%.2f, %.2f]\n", sdc, sdcLo, sdcHi)
	}
	if !math.IsNaN(due) {
		fmt.Printf("fast:thermal DUE ratio = %.2f  [%.2f, %.2f]\n", due, dueLo, dueHi)
	}
	if w := a.FastAvg.Weighted; w != nil {
		fmt.Printf("importance sampling %+v: ChipIR effective neutron budget %.0f of %d draws\n",
			w.Bias, w.Draws.ESS(), w.Draws.N)
	}
	if w := a.ThermalAvg.Weighted; w != nil {
		fmt.Printf("importance sampling %+v: ROTAX effective neutron budget %.0f of %d draws\n",
			w.Bias, w.Draws.ESS(), w.Draws.N)
	}
	return obs.Close()
}
