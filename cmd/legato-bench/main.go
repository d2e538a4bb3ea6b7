// legato-bench regenerates every table and figure of the paper's
// evaluation in one run, printing paper-vs-measured tables.
//
// Usage:
//
//	legato-bench [-quick]
package main

import (
	"flag"
	"fmt"
	"log"

	"legato/internal/experiments"
	"legato/internal/mirror"
)

func section(title string) {
	fmt.Printf("\n========================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("========================================================================\n")
}

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	flag.Parse()

	nodes := []int{1, 4, 8, 16}
	sizes := []float64{16, 32}
	frames := 600
	jobs := 600
	if *quick {
		nodes = []int{1, 4}
		sizes = []float64{16}
		frames = 200
		jobs = 200
	}

	section("E7 (Figs. 3-4): RECS|BOX platform")
	inv, err := experiments.RECSBoxInventory()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(inv)

	section("E1/E2 (Fig. 5): FPGA undervolting")
	fig5, err := experiments.Fig5(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig5.Table())

	section("E3/E4 (Fig. 6): Heat2D checkpoint/restart + MTBF estimate")
	fig6, err := experiments.Fig6(nodes, sizes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig6.Table())
	factor, err := experiments.MTBF(fig6, sizes[0], 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MTBF sustainability factor (Daly, 4h reference): %.1fx (paper: 7x)\n", factor)

	section("E5 (Fig. 7): HEATS energy/performance trade-off")
	heats, err := experiments.HEATS([]float64{0, 0.25, 0.5, 0.75, 1}, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(heats.Table())

	section("E6 (Sec. VI): Smart Mirror")
	mrows, err := experiments.Mirror(frames, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(mirror.CompareTable(mrows))

	section("E8 (Sec. III-C): NN inference under undervolting")
	mlRows, baseline, err := experiments.UndervoltML(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.MLTable(mlRows, baseline))

	section("E9 (Sec. I): selective replication")
	rep, err := experiments.Replication(jobs, 5, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.ReplicationTable(rep))

	section("E10 (Sec. II-C): XiTAO elasticity")
	xt, err := experiments.XiTAOElasticity(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.XiTAOTable(xt))

	section("E11: concurrent multi-job engine throughput")
	widths := []int{1, 2, 4, 8}
	mjJobs := 8
	if *quick {
		widths = []int{1, 4}
		mjJobs = 4
	}
	mj, err := experiments.MultiJob(widths, mjJobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.MultiJobTable(mj))

	section("E12: resilient session under MTBF-driven device loss")
	rsJobs, rsWorkers := 8, 8
	if *quick {
		rsJobs, rsWorkers = 4, 4
	}
	rs, err := experiments.Resilient(rsJobs, rsWorkers, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.ResilientTable(rs))

	section("E13: fleet power cap and energy-aware placement")
	pcJobs, pcWorkers := 8, 8
	if *quick {
		pcJobs, pcWorkers = 4, 4
	}
	pc, err := experiments.PowerCap(pcJobs, pcWorkers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.PowerCapTable(pc))

	section("E14: tail latency under silent degradation, hedged vs unhedged")
	tlJobs, tlWorkers := 6, 4
	if *quick {
		tlJobs, tlWorkers = 4, 2
	}
	tl, err := experiments.Tail(tlJobs, tlWorkers, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.TailTable(tl))

	section("Ablation: SECDED ECC mitigation for sub-guardband operation")
	eccRows, err := experiments.ECCMitigation(64<<10, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.ECCTable(eccRows))
}
