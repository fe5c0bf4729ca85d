package main

import (
	"encoding/json"
	"fmt"

	"locmps/internal/audit"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/serve"
)

// auditOpts is the benchmark's correctness bar for every schedule it sees:
// the first-principles oracle including the per-edge charge accounting.
var auditOpts = audit.Options{RequireAccounting: true}

// checkSchedule audits one schedule.
func checkSchedule(tg *model.TaskGraph, s *schedule.Schedule) error {
	return audit.Check(tg, s, auditOpts).Err()
}

// decodeResponse decodes a /v1/schedule response body against the graph
// the request carried.
func decodeResponse(body []byte, tg *model.TaskGraph) (*schedule.Schedule, error) {
	var wr serve.WireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if !serve.WireSchemaOK(wr.Schema) {
		return nil, fmt.Errorf("response schema %q", wr.Schema)
	}
	return wr.Schedule.ToSchedule(tg)
}

// checkResponse decodes and audits one response body.
func checkResponse(body []byte, tg *model.TaskGraph) (*schedule.Schedule, error) {
	s, err := decodeResponse(body, tg)
	if err != nil {
		return nil, err
	}
	if err := checkSchedule(tg, s); err != nil {
		return nil, err
	}
	return s, nil
}
