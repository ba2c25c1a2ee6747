package core

import "repro/internal/spa"

// DepositPages returns a copy of the page list a deposit holds, so an
// external test can inspect the pages its end hands back to the page pool.
func DepositPages(d *MMDeposit) []*spa.Map { return append([]*spa.Map(nil), d.pages...) }
