// Quickstart: generate a small table corpus, train an ADTD model, stand up
// a simulated user database, and run two-phase semantic type detection on
// one table — the minimal end-to-end path through the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	taste "repro"
)

func main() {
	// 1. A corpus standing in for a cloud tenant's tables. The WikiTable
	// profile labels every column and makes ~45% of the metadata ambiguous.
	fmt.Println("generating corpus …")
	ds := taste.WikiTableDataset(120, 1)

	// 2. Train the Asymmetric Double-Tower Detection model. A few epochs on
	// a small corpus is enough for a demonstration; see cmd/tastebench for
	// the full-scale recipe.
	fmt.Println("training ADTD model (a minute or so on one core) …")
	model, err := taste.NewModel(ds, taste.ReproScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := taste.DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.LR, cfg.FinalLR = 1.5e-3, 4e-4
	cfg.PosWeight = 6
	cfg.WeightDecay = 1e-4
	cfg.Log = os.Stderr
	if err := taste.Train(model, ds, cfg); err != nil {
		log.Fatal(err)
	}

	// 3. A simulated remote user database (RDS-for-MySQL stand-in) holding
	// the unseen test tables, with realistic network latency.
	server := taste.NewServer(taste.PaperLatency(1.0))
	server.LoadTables("tenant", ds.Test)

	// 4. The two-phase detector: Phase 1 reads only metadata; Phase 2 scans
	// content for columns whose P1 probabilities land in (α, β).
	det, err := taste.NewDetector(model, taste.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	table := ds.Test[0].Name
	truth := taste.GroundTruth(ds.Test)
	fmt.Printf("\ndetecting semantic types for table %q\n", table)
	rep, err := det.DetectDatabase(context.Background(), server, "tenant", taste.SequentialMode, table)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		log.Fatal(rep.Errors[0])
	}
	res := rep.Tables[0]
	fmt.Printf("%-16s %-8s %-28s %s\n", "column", "phase", "admitted types", "ground truth")
	for _, c := range res.Columns {
		fmt.Printf("%-16s P%-7d %-28s %s\n",
			c.Column, c.Phase, strings.Join(c.Admitted, ","), strings.Join(truth[res.Table+"."+c.Column], ","))
	}
	fmt.Printf("\ncolumns scanned in Phase 2: %d of %d\n", res.ScannedColumns, len(res.Columns))
}
