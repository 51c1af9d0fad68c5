// Census: an IPUMS-style analytics scenario. A statistics bureau wants to
// publish cross-tabulations like "share of people with income in the bottom
// quarter AND working 30-45 hours" without ever holding raw microdata: each
// respondent submits one ε-LDP report, and every range query below is
// answered from the same private aggregate.
//
// The example also demonstrates the privacy/utility dial: the same analysis
// at three privacy budgets.
//
// Run with:
//
//	go run ./examples/census
package main

import (
	"fmt"
	"log"

	"privmdr"
)

// Attribute meanings in the IpumsLike generator (internal/dataset):
// attributes cycle income-like, age-like, hours-like over a 64-value ordinal
// domain.
const (
	income = 0
	age    = 1
	hours  = 2
)

func main() {
	ds, err := privmdr.GenerateDataset("ipums", privmdr.GenOptions{
		N: 200_000, D: 6, C: 64, Seed: 2026,
	})
	if err != nil {
		log.Fatal(err)
	}

	analyses := []struct {
		name string
		q    privmdr.Query
	}{
		{"low income", privmdr.Query{
			{Attr: income, Lo: 0, Hi: 15},
		}},
		{"low income & full-time hours", privmdr.Query{
			{Attr: income, Lo: 0, Hi: 15},
			{Attr: hours, Lo: 30, Hi: 45},
		}},
		{"working-age & mid income", privmdr.Query{
			{Attr: age, Lo: 16, Hi: 47},
			{Attr: income, Lo: 16, Hi: 39},
		}},
		{"3-way cross-tab", privmdr.Query{
			{Attr: income, Lo: 0, Hi: 31},
			{Attr: age, Lo: 8, Hi: 55},
			{Attr: hours, Lo: 24, Hi: 63},
		}},
	}
	truth := make([]float64, len(analyses))
	for i, a := range analyses {
		truth[i] = privmdr.TrueAnswers(ds, []privmdr.Query{a.q})[0]
	}

	fmt.Printf("%-30s %10s", "analysis", "exact")
	budgets := []float64{0.5, 1.0, 2.0}
	for _, eps := range budgets {
		fmt.Printf("   eps=%-6.1f", eps)
	}
	fmt.Println()

	// Fit once per budget, collecting answers column-wise for display.
	answers := make([][]float64, len(analyses))
	for bi, eps := range budgets {
		est, err := privmdr.Fit(privmdr.NewHDG(), ds, eps, 11)
		if err != nil {
			log.Fatal(err)
		}
		for i, a := range analyses {
			got, err := est.Answer(a.q)
			if err != nil {
				log.Fatal(err)
			}
			if bi == 0 {
				answers[i] = make([]float64, len(budgets))
			}
			answers[i][bi] = got
		}
	}
	for i, a := range analyses {
		fmt.Printf("%-30s %10.4f", a.name, truth[i])
		for bi := range budgets {
			fmt.Printf("   %10.4f", answers[i][bi])
		}
		fmt.Println()
	}
	fmt.Println("\nEach respondent sent exactly one epsilon-LDP report per fit;")
	fmt.Println("all analyses above are post-processing of the same aggregate.")
}
