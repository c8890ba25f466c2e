package core

import "repro/internal/sql/plan"

// PlanCacheOf exposes a system's plan cache to the external tests.
func PlanCacheOf(s *System) *plan.Cache { return s.plans }
