package workloads

// Chained pipelines over the GPU-side data plane (internal/dataplane): a
// two-stage detect→identify face pipeline whose intermediate tensor travels
// by MemExport/MemImport (or PeerCopy across GPU servers) instead of
// bouncing through the object store, and an N-way ensemble workload whose
// replicas share one model upload via ModelBroadcast.

import (
	"fmt"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/dataplane"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// PipelineTensorBytes is the detect stage's output — aligned face crops plus
// landmarks for a 256-image batch — and thus the volume the handoff moves.
const PipelineTensorBytes = 48 * MB

// pipeline stage parameters: RetinaFace-class detector feeding an
// ArcFace-class identifier, scaled to the pipeline experiment's batch.
const (
	detectModelBytes   = 104 * MB
	detectWorkBytes    = 1200 * MB
	identifyModelBytes = 249 * MB
	identifyWorkBytes  = 1500 * MB
)

// DetectStage returns the producer of the two-stage face pipeline. Its body
// reads h.Mode: in GPU mode it exports its output tensor on the data plane
// and publishes the export ID in h; in bounce mode it reads the tensor back
// to the host and publishes its fingerprint for the consumer's re-upload.
func DetectStage(h *dataplane.Handoff) *faas.Function {
	return &faas.Function{
		Name:          "pipeline-detect",
		GPUMem:        2 << 30,
		DownloadBytes: 134 * MB,
		ModelDLBytes:  detectModelBytes,
		Run: func(p *sim.Proc, api gen.API) error {
			return runDetect(p, api, h)
		},
	}
}

func runDetect(p *sim.Proc, api gen.API, h *dataplane.Handoff) error {
	fns, err := api.RegisterKernels(p, []string{"detect::infer"})
	if err != nil {
		return err
	}
	work, err := api.Malloc(p, detectWorkBytes)
	if err != nil {
		return err
	}
	if err := api.MemcpyH2D(p, work, gpu.HostBuffer{FP: 21, Size: detectModelBytes}, detectModelBytes); err != nil {
		return err
	}
	out, err := api.Malloc(p, PipelineTensorBytes)
	if err != nil {
		return err
	}
	mutates := []cuda.DevPtr{work, out} // one slice for every launch, as in RunBody
	for i := 0; i < 24; i++ {
		if err := api.LaunchKernel(p, cuda.LaunchParams{
			Fn:       fns[0],
			Grid:     [3]int{128, 1, 1},
			Block:    [3]int{256, 1, 1},
			Duration: 800 * time.Microsecond,
			Mutates:  mutates,
		}); err != nil {
			return err
		}
	}
	if err := api.DeviceSynchronize(p); err != nil {
		return err
	}
	if h.Mode == dataplane.HandoffGPU {
		export, size, err := api.MemExport(p, out, "detect-out")
		if err != nil {
			return err
		}
		h.Export, h.Bytes = export, size
	} else {
		buf, err := api.MemcpyD2H(p, out, PipelineTensorBytes)
		if err != nil {
			return err
		}
		h.FP, h.Bytes = buf.FP, PipelineTensorBytes
		if err := api.Free(p, out); err != nil {
			return err
		}
	}
	return api.Free(p, work)
}

// IdentifyStage returns the consumer of the two-stage face pipeline. In GPU
// mode it imports the producer's export — zero-copy on the producer's GPU
// server, a fabric peer copy elsewhere — and wraps any import failure in
// dataplane.ErrHandoffLost so the chain driver falls back to the bounce
// path. In bounce mode it re-uploads the tensor the producer staged out.
func IdentifyStage(h *dataplane.Handoff) *faas.Function {
	return &faas.Function{
		Name:          "pipeline-identify",
		GPUMem:        2 << 30,
		DownloadBytes: 266 * MB,
		ModelDLBytes:  identifyModelBytes,
		Run: func(p *sim.Proc, api gen.API) error {
			return runIdentify(p, api, h)
		},
	}
}

func runIdentify(p *sim.Proc, api gen.API, h *dataplane.Handoff) error {
	fns, err := api.RegisterKernels(p, []string{"identify::infer"})
	if err != nil {
		return err
	}
	work, err := api.Malloc(p, identifyWorkBytes)
	if err != nil {
		return err
	}
	if err := api.MemcpyH2D(p, work, gpu.HostBuffer{FP: 22, Size: identifyModelBytes}, identifyModelBytes); err != nil {
		return err
	}
	var in cuda.DevPtr
	if h.Mode == dataplane.HandoffGPU {
		ptr, _, err := api.MemImport(p, h.Export)
		if err != nil {
			ptr, _, err = api.PeerCopy(p, h.Export)
		}
		if err != nil {
			return fmt.Errorf("%w: export %d: %v", dataplane.ErrHandoffLost, h.Export, err)
		}
		in = ptr
	} else {
		ptr, err := api.Malloc(p, h.Bytes)
		if err != nil {
			return err
		}
		if err := api.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: h.FP, Size: h.Bytes}, h.Bytes); err != nil {
			return err
		}
		in = ptr
	}
	// The imported tensor may be a zero-copy view of shared pages: the
	// identify kernels read it and mutate only their own working set.
	mutates := []cuda.DevPtr{work}
	for i := 0; i < 32; i++ {
		if err := api.LaunchKernel(p, cuda.LaunchParams{
			Fn:       fns[0],
			Grid:     [3]int{128, 1, 1},
			Block:    [3]int{256, 1, 1},
			Duration: 600 * time.Microsecond,
			Mutates:  mutates,
		}); err != nil {
			return err
		}
	}
	if err := api.DeviceSynchronize(p); err != nil {
		return err
	}
	if _, err := api.MemcpyD2H(p, work, 128<<10); err != nil {
		return err
	}
	// Freeing the import drops the shared mapping; the fabric frees the
	// backing pages once the last consumer lets go.
	if err := api.Free(p, in); err != nil {
		return err
	}
	return api.Free(p, work)
}

// EnsembleMember returns one replica of an N-way model-ensemble function:
// every member needs the same base model on device before voting on its
// slice of the input. Members ask the data plane for the model first —
// ModelBroadcast returns a host-seeded copy for the first member on a GPU
// server and device-to-device clones for the rest — and fall back to a
// plain upload when nothing is staged.
func EnsembleMember(modelBytes int64) *faas.Function {
	return &faas.Function{
		Name:          "ensemble",
		GPUMem:        2 << 30,
		DownloadBytes: modelBytes + 16*MB,
		ModelDLBytes:  modelBytes,
		Run: func(p *sim.Proc, api gen.API) error {
			return runEnsemble(p, api, modelBytes)
		},
	}
}

func runEnsemble(p *sim.Proc, api gen.API, modelBytes int64) error {
	fns, err := api.RegisterKernels(p, []string{"ensemble::vote"})
	if err != nil {
		return err
	}
	model, size, _, err := api.ModelBroadcast(p)
	if err != nil {
		return err
	}
	if model == 0 || size < modelBytes {
		if model != 0 {
			if err := api.Free(p, model); err != nil {
				return err
			}
		}
		// Nothing staged on this GPU server yet: pay the ordinary upload.
		model, err = api.Malloc(p, modelBytes)
		if err != nil {
			return err
		}
		if err := api.MemcpyH2D(p, model, gpu.HostBuffer{FP: 23, Size: modelBytes}, modelBytes); err != nil {
			return err
		}
	}
	scratch, err := api.Malloc(p, 64*MB)
	if err != nil {
		return err
	}
	mutates := []cuda.DevPtr{scratch}
	for i := 0; i < 16; i++ {
		if err := api.LaunchKernel(p, cuda.LaunchParams{
			Fn:       fns[0],
			Grid:     [3]int{64, 1, 1},
			Block:    [3]int{256, 1, 1},
			Duration: 700 * time.Microsecond,
			Mutates:  mutates,
		}); err != nil {
			return err
		}
	}
	if err := api.DeviceSynchronize(p); err != nil {
		return err
	}
	if _, err := api.MemcpyD2H(p, scratch, 64<<10); err != nil {
		return err
	}
	if err := api.Free(p, scratch); err != nil {
		return err
	}
	return api.Free(p, model)
}

// SeedEnsembleModel returns a warm-up function that stages the ensemble
// model into the GPU server's host cache tier: it uploads the model and
// offers it to the model cache (ModelPersist); once the session ends and
// device pins are rejected or scavenged, the bytes land in the host tier —
// exactly the state ModelBroadcast seeds from.
func SeedEnsembleModel(modelBytes int64) *faas.Function {
	return &faas.Function{
		Name:          "ensemble",
		GPUMem:        2 << 30,
		DownloadBytes: modelBytes + 16*MB,
		ModelDLBytes:  modelBytes,
		Run: func(p *sim.Proc, api gen.API) error {
			work, err := api.Malloc(p, modelBytes)
			if err != nil {
				return err
			}
			if err := api.MemcpyH2D(p, work, gpu.HostBuffer{FP: 23, Size: modelBytes}, modelBytes); err != nil {
				return err
			}
			return api.ModelPersist(p, work)
		},
	}
}
