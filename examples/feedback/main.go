// Feedback: the paper's §8 future-work directions implemented — extend the
// semantic type domain with a tenant-defined type at runtime, and adapt the
// detector to user corrections with a lightweight online update, without
// retraining from scratch.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	taste "repro"
	"repro/internal/metafeat"
)

func main() {
	fmt.Println("generating corpus and training base model …")
	ds := taste.WikiTableDataset(100, 5)
	model, err := taste.NewModel(ds, taste.ReproScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := taste.DefaultTrainConfig()
	cfg.Epochs = 4
	cfg.PosWeight = 6
	cfg.Log = os.Stderr
	if err := taste.Train(model, ds, cfg); err != nil {
		log.Fatal(err)
	}
	det, err := taste.NewDetector(model, taste.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. Tenant-defined semantic type --------------------------------
	// A logistics tenant tracks parcels with a proprietary tracking code.
	custom := &taste.SemanticType{
		Name:        "parcel_tracking_code",
		Category:    "identifier",
		SQLType:     "VARCHAR",
		ColumnNames: []string{"tracking_code", "parcel_code", "trk"},
		Comments:    []string{"carrier tracking code"},
		Gen: func(r *rand.Rand) string {
			return fmt.Sprintf("PT%09d", r.Intn(1_000_000_000))
		},
	}
	if err := det.RegisterTypes(ds.Registry, []*taste.SemanticType{custom}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered tenant type %q — classifier now covers %d classes\n",
		custom.Name, model.Types.Len())

	// --- 2. User feedback ------------------------------------------------
	// Build the column the tenant complained about: named "trk", holding
	// tracking codes, currently unknown to the model.
	table := &metafeat.TableInfo{
		Name:     "shipments_export_1",
		RowCount: 5,
		Columns: []*metafeat.ColumnInfo{
			{Name: "trk", DataType: "VARCHAR", Values: []string{
				"PT000131755", "PT000902113", "PT000445220", "PT000778001", "PT000220404",
			}},
			{Name: "city", DataType: "VARCHAR", Values: []string{"london", "paris", "tokyo", "lima", "oslo"}},
		},
	}
	idx, _ := model.Types.Index(custom.Name)
	probBefore := probeColumn(model, table, 0, idx)

	fmt.Println("applying user feedback: column \"trk\" is parcel_tracking_code …")
	for i := 0; i < 5; i++ {
		if err := det.Feedback(table, 0, []string{custom.Name}); err != nil {
			log.Fatal(err)
		}
	}
	probAfter := probeColumn(model, table, 0, idx)
	fmt.Printf("P(parcel_tracking_code | column trk): %.4f → %.4f\n", probBefore, probAfter)
	fmt.Printf("feedback log holds %d correction(s)\n", len(det.FeedbackLog()))

	// The adapted detector now admits the custom type on similar columns.
	res := detectInfo(det, table)
	fmt.Printf("detection after feedback: trk → [%s]\n", strings.Join(res, ","))
}

// probeColumn returns the model's P1 probability of class idx for a column.
func probeColumn(model *taste.Model, table *metafeat.TableInfo, col, idx int) float64 {
	_, probs := model.PredictMeta(table, false)
	return probs[col][idx]
}

// detectInfo runs the detector over an in-memory table by loading it into a
// throwaway simulated database.
func detectInfo(det *taste.Detector, info *metafeat.TableInfo) []string {
	var cols []*taste.Column
	for _, c := range info.Columns {
		cols = append(cols, &taste.Column{Name: c.Name, SQLType: c.DataType, Values: c.Values})
	}
	tbl := &taste.Table{Name: info.Name, Columns: cols}
	server := taste.NewServer(taste.NoLatency)
	server.LoadTables("adhoc", []*taste.Table{tbl})
	rep, err := det.DetectDatabase(context.Background(), server, "adhoc", taste.SequentialMode)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		log.Fatal(rep.Errors[0])
	}
	return rep.Tables[0].Columns[0].Admitted
}
