// Command paperrepro regenerates the data behind every table and figure of
// the paper's evaluation section on the simulated platform and prints it
// next to the published values.
//
// Usage:
//
//	paperrepro [-exp all|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|table1|energy
//	                |ablation|adaptive|pareto|cachestudy|fusion|plan|raster]
//	           [-frames N] [-csv DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"sccpipe/internal/experiments"
	"sccpipe/internal/host"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperrepro: ")
	exp := flag.String("exp", "all", "experiment to run (fig8..fig17, table1, energy, ablation, adaptive, pareto, cachestudy, fusion, plan, raster, all)")
	frames := flag.Int("frames", 400, "walkthrough length in frames")
	version := flag.Bool("version", false, "print build version and exit")
	flag.StringVar(&csvDir, "csv", "", "also write each experiment's data as CSV into this directory")
	flag.Parse()
	if *version {
		fmt.Println(host.BuildLine("paperrepro"))
		return
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	setup := experiments.DefaultSetup()
	setup.Frames = *frames

	runners := []struct {
		name string
		run  func(experiments.Setup) error
	}{
		{"fig8", func(s experiments.Setup) error {
			return show("Fig. 8 — single-core stage profile", experiments.RunFig8, s)
		}},
		{"fig9", func(s experiments.Setup) error { return show("Fig. 9 — one renderer", experiments.RunFig9, s) }},
		{"fig10", func(s experiments.Setup) error { return show("Fig. 10 — n renderers", experiments.RunFig10, s) }},
		{"fig11", func(s experiments.Setup) error { return show("Fig. 11 — MCPC renderer", experiments.RunFig11, s) }},
		{"fig12", func(s experiments.Setup) error { return show("Fig. 12 — image sizes", experiments.RunFig12, s) }},
		{"fig13", func(s experiments.Setup) error { return show("Fig. 13 — Mogon cluster", experiments.RunFig13, s) }},
		{"fig14", func(s experiments.Setup) error {
			return show("Fig. 14 — power vs pipelines", experiments.RunFig14, s)
		}},
		{"fig15", func(s experiments.Setup) error { return show("Fig. 15 — stage idle times", experiments.RunFig15, s) }},
		{"fig16", func(s experiments.Setup) error { return show("Fig. 16 — fast blur stage", experiments.RunFig16, s) }},
		{"fig17", func(s experiments.Setup) error { return show("Fig. 17 — DVFS power", experiments.RunFig17, s) }},
		{"table1", runTable1},
		{"energy", func(s experiments.Setup) error {
			return show("Energy §VI-B — hybrid vs all-SCC", experiments.RunEnergy, s)
		}},
		// Extensions beyond the paper's own evaluation:
		{"ablation", func(s experiments.Setup) error {
			return show("Ablation — local memory / controller ports", experiments.RunAblation, s)
		}},
		{"adaptive", func(s experiments.Setup) error {
			return show("Adaptive — cost-balanced strips", experiments.RunAdaptive, s)
		}},
		{"pareto", func(s experiments.Setup) error {
			return show("Pareto — DVFS plan space", experiments.RunDVFSPareto, s)
		}},
		{"cachestudy", func(s experiments.Setup) error {
			return show("CacheStudy — cache model", experiments.RunCacheStudy, s)
		}},
		{"fusion", func(s experiments.Setup) error {
			return show("Fusion — stage fusion vs hand-off traffic", experiments.RunFusion, s)
		}},
		{"plan", func(s experiments.Setup) error {
			return show("Plan — profile-driven mapping vs static", experiments.RunPlan, s)
		}},
		{"raster", func(s experiments.Setup) error {
			return show("Raster — serial vs tiled-binned", experiments.RunRaster, s)
		}},
	}

	want := strings.ToLower(*exp)
	ran := false
	for _, r := range runners {
		if want != "all" && want != r.name {
			continue
		}
		ran = true
		if err := r.run(setup); err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
	}
	if !ran {
		log.Printf("unknown experiment %q", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// csvDir, when set, receives one CSV file per experiment.
var csvDir string

// csvWriter is satisfied by every experiment result.
type csvWriter interface {
	WriteCSV(io.Writer) error
}

// show runs an experiment returning a fmt.Stringer and prints it; with
// -csv it also writes the data file.
func show[T fmt.Stringer](title string, run func(experiments.Setup) (T, error), s experiments.Setup) error {
	res, err := run(s)
	if err != nil {
		return err
	}
	fmt.Printf("== %s ==\n%s\n", title, res)
	return writeCSV(title, res)
}

// writeCSV stores a result's data under a slug derived from the title.
func writeCSV(title string, res any) error {
	if csvDir == "" {
		return nil
	}
	cw, ok := res.(csvWriter)
	if !ok {
		return nil
	}
	// Slug: the alphanumerics of the title's prefix ("Fig. 14 — ..." → "fig14").
	prefix, _, _ := strings.Cut(title, "—")
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return -1
	}, prefix)
	if slug == "" {
		slug = "experiment"
	}
	f, err := os.Create(filepath.Join(csvDir, slug+".csv"))
	if err != nil {
		return err
	}
	if err := cw.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTable1 prints the reproduced grid side by side with the paper's.
func runTable1(s experiments.Setup) error {
	tbl, err := experiments.RunTable1(s)
	if err != nil {
		return err
	}
	fmt.Println("== Table I — overview of the results (simulated vs paper) ==")
	fmt.Printf("%-24s %s\n", "configuration", " k=1..7 (sim | paper, seconds scaled to the run length)")
	for _, row := range tbl.Rows {
		paper := experiments.PaperTable1[row.Label]
		fmt.Printf("%-24s", row.Label)
		for k := 0; k < 7; k++ {
			if row.Seconds[k] == 0 {
				fmt.Printf("    -    ")
				continue
			}
			fmt.Printf(" %4.0f|%-4.0f", row.Seconds[k], s.Scale(paper[k]))
		}
		fmt.Println()
	}
	fmt.Println()
	return writeCSV("table1", tbl)
}
