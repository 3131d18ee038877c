package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRunStealingDissolvesImbalance runs the walkthrough and checks its
// headline: on the same imbalanced problem, work stealing steals and
// ends less imbalanced than Load On Demand.
func TestRunStealingDissolvesImbalance(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	imbalance := map[string]float64{}
	steals := map[string]int{}
	rows := regexp.MustCompile(`(?m)^(ondemand|stealing) +[0-9.]+ +[0-9.]+ +([0-9.]+) +(\d+)/\d+ +\d+$`)
	for _, m := range rows.FindAllStringSubmatch(out.String(), -1) {
		imbalance[m[1]], _ = strconv.ParseFloat(m[2], 64)
		steals[m[1]], _ = strconv.Atoi(m[3])
	}
	if len(imbalance) != 2 {
		t.Fatalf("want an ondemand and a stealing row in:\n%s", out.String())
	}
	if imbalance["stealing"] >= imbalance["ondemand"] || steals["stealing"] == 0 {
		t.Errorf("stealing: imbalance %.2f with %d steals, ondemand %.2f; want fewer with steals",
			imbalance["stealing"], steals["stealing"], imbalance["ondemand"])
	}
}
