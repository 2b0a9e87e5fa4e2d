package detect

import (
	"encoding/json"
	"fmt"
)

// serializable mirrors Detector for JSON persistence. Cluster fields are
// unexported in the working representation to keep the acceptance logic
// private; the wire format is explicit and versioned.
type serializable struct {
	Version     int             `json:"version"`
	Tier        Tier            `json:"tier"`
	TrainImages int             `json:"train_images"`
	Clusters    []clusterOnWire `json:"clusters"`
}

type clusterOnWire struct {
	MeanH   float64 `json:"mean_h"`
	StdH    float64 `json:"std_h"`
	MeanS   float64 `json:"mean_s"`
	StdS    float64 `json:"std_s"`
	MeanV   float64 `json:"mean_v"`
	StdV    float64 `json:"std_v"`
	Support int     `json:"support"`
}

// wireVersion is bumped whenever the acceptance semantics change in a
// way that invalidates stored models.
const wireVersion = 1

// Marshal serialises a trained detector to JSON, the repository's model
// checkpoint format (the analogue of the paper's published .pt weights).
func (d *Detector) Marshal() ([]byte, error) {
	s := serializable{
		Version:     wireVersion,
		Tier:        d.Tier,
		TrainImages: d.TrainImages,
	}
	for _, c := range d.Clusters {
		s.Clusters = append(s.Clusters, clusterOnWire{
			MeanH: c.meanH, StdH: c.stdH,
			MeanS: c.meanS, StdS: c.stdS,
			MeanV: c.meanV, StdV: c.stdV,
			Support: c.support,
		})
	}
	return json.MarshalIndent(s, "", "  ")
}

// Unmarshal restores a detector from its JSON checkpoint.
func Unmarshal(data []byte) (*Detector, error) {
	var s serializable
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("detect: parsing checkpoint: %w", err)
	}
	if s.Version != wireVersion {
		return nil, fmt.Errorf("detect: checkpoint version %d, want %d", s.Version, wireVersion)
	}
	if s.Tier.Resolution <= 0 {
		return nil, fmt.Errorf("detect: checkpoint tier resolution %d, want > 0", s.Tier.Resolution)
	}
	d := &Detector{Tier: s.Tier, TrainImages: s.TrainImages}
	for i, c := range s.Clusters {
		if c.StdH < 0 || c.StdS < 0 || c.StdV < 0 || c.Support < 0 {
			return nil, fmt.Errorf("detect: checkpoint cluster %d has std (%v, %v, %v), support %d; want none negative",
				i, c.StdH, c.StdS, c.StdV, c.Support)
		}
		d.Clusters = append(d.Clusters, cluster{
			meanH: c.MeanH, stdH: c.StdH,
			meanS: c.MeanS, stdS: c.StdS,
			meanV: c.MeanV, stdV: c.StdV,
			support: c.Support,
		})
	}
	return d, nil
}
