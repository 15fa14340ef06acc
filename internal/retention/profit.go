package retention

import (
	"fmt"
	"io"

	"telcochurn/internal/synth"
)

// Economic model behind Section 5.5's business-value claim: an accepted
// offer keeps the customer "using the operator's service for the next 5
// months to get the 1/5 offer per month", so a retained churner is worth
// five months of ARPU minus the offer's cost, and matching offers in month
// 9 yields "around 50% more profit than Month 8".
type Economics struct {
	// MonthlyARPU is the average revenue per retained customer per month.
	MonthlyARPU float64
	// RetainedMonths is the commitment window (paper: 5).
	RetainedMonths int
	// OfferCost maps each offer (1..NumOffers) to the operator's cost of
	// honoring it.
	OfferCost map[int]float64
	// ContactCost is the per-target campaign cost (SMS/outbound call).
	ContactCost float64
}

// DefaultEconomics returns a plausible prepaid economics setting: ARPU 40,
// 5-month commitment, offer costs matching the four offers of Section 5.5.
func DefaultEconomics() Economics {
	return Economics{
		MonthlyARPU:    40,
		RetainedMonths: 5,
		OfferCost: map[int]float64{
			// Cashback is granted against the customer's own recharge, so
			// its effective cost is well below face value (the credit is
			// consumed as discounted usage the customer partly pays for).
			synth.OfferCashback100: 45,
			synth.OfferCashback50:  25,
			synth.OfferFlux500MB:   15, // 500 MB wholesale cost
			synth.OfferVoice200Min: 12, // 200 minutes wholesale cost
		},
		ContactCost: 0.5,
	}
}

// ProfitReport values one campaign under an economics model.
type ProfitReport struct {
	Month         int
	Targeted      int
	OffersSent    int
	Accepted      int
	RetainedValue float64 // ARPU x months for accepted churners
	OfferCost     float64
	ContactCost   float64
	Profit        float64
}

// Profit computes the campaign's net value: retained revenue minus offer
// and contact costs. Only group-B targets incur offer costs; both groups
// incur nothing for control (group A receives no contact).
func (e Economics) Profit(res *CampaignResult) ProfitReport {
	rep := ProfitReport{Month: res.Month}
	for _, t := range res.Targets {
		rep.Targeted++
		if t.Group != 'B' {
			continue
		}
		rep.OffersSent++
		rep.ContactCost += e.ContactCost
		if t.Accepted {
			rep.Accepted++
			rep.RetainedValue += float64(e.MonthlyARPU * float64(e.RetainedMonths)) // rounded apart: no host fuses it
			rep.OfferCost += e.OfferCost[t.Offer]
		}
	}
	rep.Profit = rep.RetainedValue - rep.OfferCost - rep.ContactCost
	return rep
}

// Render prints the report.
func (r ProfitReport) Render(w io.Writer) {
	fmt.Fprintf(w, "month %d campaign economics: targeted=%d offers=%d accepted=%d\n",
		r.Month, r.Targeted, r.OffersSent, r.Accepted)
	fmt.Fprintf(w, "  retained value %.0f - offer cost %.0f - contact cost %.1f = profit %.1f\n",
		r.RetainedValue, r.OfferCost, r.ContactCost, r.Profit)
}

// ProfitLift returns second-campaign profit over first-campaign profit
// (the paper: "around 50% more profit"). Returns 0 when the first campaign
// made nothing.
func ProfitLift(first, second ProfitReport) float64 {
	if first.Profit <= 0 {
		return 0
	}
	return second.Profit/first.Profit - 1
}
