// Package workloads models the six benchmark applications of the paper's
// evaluation (§VII) as phase-calibrated programs against the remoted API
// surface:
//
//	K-means (Altis, CUDA-only), CovidCTNet (TensorFlow), Face Detection
//	(RetinaFace/ONNX), Face Identification (ArcFace/ONNX), Question
//	Answering (BERT/ONNX) and Image Classification (ResNet-50/ONNX).
//
// Each workload is a Spec: download volume, GPU memory footprint, a model
// load phase (handle creation, descriptor call streams, model upload,
// graph-construction ops) and a batched processing phase (input uploads,
// pointer queries, descriptor churn, raw kernel launches, synchronous
// library ops, result downloads). The per-phase parameters are calibrated
// so the phase totals land near Table II / Figure 3 on the simulated V100s;
// weights and images are synthetic bytes — the paper's observed timings,
// memory footprints and API-call mixes are what the experiments exercise,
// and all of those are retained (see DESIGN.md §2).
package workloads

import (
	"fmt"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// MB is one binary megabyte, the unit Table II uses.
const MB = int64(1) << 20

// Spec describes one benchmark workload.
type Spec struct {
	Name string

	// Memory.
	MemLimit int64 // declared GPU memory requirement (drives scheduling)
	PeakMem  int64 // Table II "Peak GPU Memory Usage"
	WorkBuf  int64 // main device working set allocated during load

	// Download phase: the real model+input volume, charged against the
	// environment's S3 bandwidth (OpenFaaS containers sustain parallel
	// multipart transfers; Lambda sees a fraction of that, which is what
	// produces the Table II Lambda spikes for NLP and ResNet).
	DownloadBytes int64

	// TransientBytes models allocator spikes: memory briefly allocated and
	// released right after model load. CovidCTNet's TensorFlow allocators
	// "for a brief moment during execution, allocate a large amount of
	// memory" (§VII), which is why it must request nearly a whole GPU.
	TransientBytes int64

	// Model load phase.
	UsesDNN       bool
	UsesBLAS      bool
	ModelBytes    int64         // uploaded host-to-device during load
	LoadDescPairs int           // cudnnCreate*/Set* descriptor pairs during load
	LoadOps       int           // graph-construction library ops during load
	LoadOpTime    time.Duration // nominal kernel time per load op

	// Processing phase, per batch.
	Batches        int
	BatchInBytes   int64
	BatchOutBytes  int64
	Launches       int           // raw kernel launches per batch
	LaunchTime     time.Duration // nominal kernel time per raw launch
	Forwards       int           // synchronous cuDNN/cuBLAS ops per batch
	ForwardTime    time.Duration // nominal kernel time per library op
	DescPairs      int           // descriptor create/set/destroy churn per batch
	PtrQueries     int           // cudaPointerGetAttributes per batch
	CPUPerBatch    time.Duration // host-side pre/post-processing per batch
	CPUOnlyRuntime time.Duration // Table II "Average Runtime (CPU)"
}

// Phases records the per-phase times of one run, the quantities Figure 3
// breaks down.
type Phases struct {
	Download time.Duration
	Init     time.Duration // CUDA runtime/context initialization (critical path)
	Load     time.Duration // handle creation + descriptors + model upload + ops
	Process  time.Duration // batched inference/compute
}

// Total returns the sum of all phases.
func (ph Phases) Total() time.Duration {
	return ph.Download + ph.Init + ph.Load + ph.Process
}

// KMeans models the Altis CUDA K-means benchmark: one million 16-d points,
// 16 clusters, 2000 rounds. Pure CUDA: no cuDNN, no cuBLAS.
func KMeans() *Spec {
	return &Spec{
		Name:           "kmeans",
		MemLimit:       1 << 30,
		PeakMem:        323 * MB,
		WorkBuf:        300 * MB,
		DownloadBytes:  235 * MB, // 235.3 MB input
		ModelBytes:     0,
		Batches:        2000, // one batch per clustering round
		BatchInBytes:   0,    // points uploaded once with the working set
		BatchOutBytes:  4096, // centroid readback every round
		Launches:       2,
		LaunchTime:     1250 * time.Microsecond,
		CPUPerBatch:    2500 * time.Microsecond,
		CPUOnlyRuntime: 429100 * time.Millisecond,
	}
}

// CovidCTNet models the TensorFlow COVID CT-scan pipeline: two models whose
// allocators transiently demand 13.5 GB, so the function requests (nearly)
// a whole GPU (§VII).
func CovidCTNet() *Spec {
	return &Spec{
		Name:           "covidctnet",
		MemLimit:       14 << 30,
		PeakMem:        7802 * MB,
		WorkBuf:        6800 * MB,
		TransientBytes: 6600 * MB, // spike to ~13.5 GB during model setup
		DownloadBytes:  202 * MB,  // 47.3 MB models + 155.5 MB scans
		UsesDNN:        true,
		UsesBLAS:       true,
		ModelBytes:     47 * MB,
		LoadDescPairs:  3500,
		LoadOps:        150,
		LoadOpTime:     4 * time.Millisecond,
		Batches:        2, // two CT scans per invocation
		BatchInBytes:   78 * MB,
		BatchOutBytes:  1 * MB,
		Launches:       800,
		LaunchTime:     50 * time.Microsecond,
		Forwards:       900,
		ForwardTime:    5100 * time.Microsecond,
		DescPairs:      350,
		PtrQueries:     200,
		CPUPerBatch:    4820 * time.Millisecond,
		CPUOnlyRuntime: 99200 * time.Millisecond,
	}
}

// FaceDetection models RetinaFace-ResNet50 on ONNX Runtime: 256 WIDER FACE
// images, batch size 16, and the largest GPU footprint of the suite.
func FaceDetection() *Spec {
	return &Spec{
		Name:           "facedetection",
		MemLimit:       14 << 30,
		PeakMem:        13194 * MB,
		WorkBuf:        12500 * MB,
		DownloadBytes:  134 * MB, // 104.4 MB model + ~30 MB images
		UsesDNN:        true,
		UsesBLAS:       true,
		ModelBytes:     104 * MB,
		LoadDescPairs:  2800,
		LoadOps:        60,
		LoadOpTime:     5 * time.Millisecond,
		Batches:        16,
		BatchInBytes:   2 * MB,
		BatchOutBytes:  512 << 10,
		Launches:       300,
		LaunchTime:     40 * time.Microsecond,
		Forwards:       810,
		ForwardTime:    460 * time.Microsecond,
		DescPairs:      150,
		PtrQueries:     100,
		CPUPerBatch:    405 * time.Millisecond,
		CPUOnlyRuntime: 71000 * time.Millisecond,
	}
}

// FaceIdentification models ArcFace LResNet100E-IR on ONNX Runtime: 256 LFW
// faces per run, batch size 16 — the workload the ablation study (Fig. 4)
// discusses in detail.
func FaceIdentification() *Spec {
	return &Spec{
		Name:           "faceidentification",
		MemLimit:       4 << 30,
		PeakMem:        3514 * MB,
		WorkBuf:        3200 * MB,
		DownloadBytes:  266 * MB, // 249 MB model + 17 MB faces
		UsesDNN:        true,
		UsesBLAS:       true,
		ModelBytes:     249 * MB,
		LoadDescPairs:  2500,
		LoadOps:        50,
		LoadOpTime:     5 * time.Millisecond,
		Batches:        16,
		BatchInBytes:   1 * MB,
		BatchOutBytes:  128 << 10,
		Launches:       470,
		LaunchTime:     30 * time.Microsecond,
		Forwards:       430,
		ForwardTime:    450 * time.Microsecond,
		DescPairs:      230,
		PtrQueries:     150,
		CPUPerBatch:    222 * time.Millisecond,
		CPUOnlyRuntime: 42100 * time.Millisecond,
	}
}

// QuestionAnswering models BERT (MLPerf) SQuAD inference on ONNX Runtime:
// 512 questions per run, batch size 16, a 1.2 GB model.
func QuestionAnswering() *Spec {
	return &Spec{
		Name:           "nlp",
		MemLimit:       5 << 30,
		PeakMem:        4028 * MB,
		WorkBuf:        2500 * MB,
		DownloadBytes:  1262 * MB, // 1.2 GB model + 61.7 MB inputs
		UsesDNN:        true,
		UsesBLAS:       true,
		ModelBytes:     1200 * MB,
		LoadDescPairs:  3000,
		LoadOps:        120,
		LoadOpTime:     5 * time.Millisecond,
		Batches:        32,
		BatchInBytes:   2 * MB,
		BatchOutBytes:  256 << 10,
		Launches:       200,
		LaunchTime:     100 * time.Microsecond,
		Forwards:       380,
		ForwardTime:    1530 * time.Microsecond,
		DescPairs:      120,
		PtrQueries:     80,
		CPUPerBatch:    150 * time.Millisecond,
		CPUOnlyRuntime: 347000 * time.Millisecond,
	}
}

// ImageClassification models ResNet-50 v1.5 (MLPerf) on ONNX Runtime: 2048
// preprocessed ImageNet images (~1.2 GB uploaded across batches), batch 16.
func ImageClassification() *Spec {
	return &Spec{
		Name:           "resnet",
		MemLimit:       8 << 30,
		PeakMem:        7650 * MB,
		WorkBuf:        7000 * MB,
		DownloadBytes:  1297 * MB, // 97.4 MB model + 1.2 GB inputs
		UsesDNN:        true,
		UsesBLAS:       true,
		ModelBytes:     97 * MB,
		LoadDescPairs:  2600,
		LoadOps:        70,
		LoadOpTime:     5 * time.Millisecond,
		Batches:        128,
		BatchInBytes:   9728 << 10, // ~9.5 MB of preprocessed images per batch
		BatchOutBytes:  64 << 10,
		Launches:       60,
		LaunchTime:     35 * time.Microsecond,
		Forwards:       80,
		ForwardTime:    720 * time.Microsecond,
		DescPairs:      40,
		PtrQueries:     30,
		CPUPerBatch:    70 * time.Millisecond,
		CPUOnlyRuntime: 66700 * time.Millisecond,
	}
}

// All returns the six workloads in the paper's column order.
func All() []*Spec {
	return []*Spec{
		KMeans(), CovidCTNet(), FaceDetection(),
		FaceIdentification(), QuestionAnswering(), ImageClassification(),
	}
}

// Smaller returns the four workloads with the smaller memory footprints
// (Table III's "SW" mix): all but CovidCTNet and Face Detection.
func Smaller() []*Spec {
	return []*Spec{
		KMeans(), FaceIdentification(), QuestionAnswering(), ImageClassification(),
	}
}

// ByName returns the named spec.
func ByName(name string) (*Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// RunBody executes the workload's GPU phases against api. The session must
// already be open (Hello); phases, if non-nil, receives the load/process
// breakdown. Init time (CUDA context creation) is whatever the backend puts
// on the critical path before the first call returns — it is measured by
// the caller around the session setup.
func (s *Spec) RunBody(p *sim.Proc, api gen.API, phases *Phases) error {
	loadStart := p.Now()

	// The guest library ships kernel information ahead of execution.
	fns, err := api.RegisterKernels(p, []string{s.Name + "::main", s.Name + "::aux"})
	if err != nil {
		return err
	}

	// Applications commonly probe the device before allocating.
	if _, err := api.GetDeviceCount(p); err != nil {
		return err
	}
	if _, err := api.GetDeviceProperties(p, 0); err != nil {
		return err
	}

	// Working set: weights, activations, input and output buffers. A model
	// cache hit (ModelAttach) adopts the working set a previous invocation
	// of this function persisted — weights already on device, or restaged
	// from the host tier by the API server — so the model load phase below
	// collapses to handle creation.
	var work cuda.DevPtr
	warm := false
	if s.ModelBytes > 0 {
		ptr, size, _, err := api.ModelAttach(p)
		if err != nil {
			return err
		}
		if ptr != 0 && size >= s.WorkBuf {
			work, warm = ptr, true
		}
	}
	if !warm {
		w, err := api.Malloc(p, s.WorkBuf)
		if err != nil {
			return err
		}
		work = w
	}
	// What every kernel of the body writes: one slice for all of them. An
	// API borrows Mutates at most until the launch is confirmed and never
	// writes it.
	mutates := []cuda.DevPtr{work}
	inBuf, err := api.Malloc(p, maxI64(s.BatchInBytes, 1*MB))
	if err != nil {
		return err
	}
	outBuf, err := api.Malloc(p, maxI64(s.BatchOutBytes, 64<<10))
	if err != nil {
		return err
	}

	// --- model load phase ---
	var dnn optDNN
	if s.UsesDNN {
		h, err := api.DnnCreate(p)
		if err != nil {
			return err
		}
		dnn.h = h
		dnn.ok = true
	}
	var blas optBLAS
	if s.UsesBLAS {
		h, err := api.BlasCreate(p)
		if err != nil {
			return err
		}
		blas.h = h
		blas.ok = true
	}
	if !warm {
		if err := descriptorChurn(p, api, s.LoadDescPairs); err != nil {
			return err
		}
		if s.ModelBytes > 0 {
			if err := api.MemcpyH2D(p, work, gpu.HostBuffer{FP: 11, Size: s.ModelBytes}, s.ModelBytes); err != nil {
				return err
			}
		}
		for i := 0; i < s.LoadOps; i++ {
			if dnn.ok {
				if err := api.DnnForward(p, dnn.h, "build", s.LoadOpTime, mutates, nil); err != nil {
					return err
				}
			} else {
				if err := api.LaunchKernel(p, cuda.LaunchParams{Fn: fns[1], Duration: s.LoadOpTime, Mutates: mutates}); err != nil {
					return err
				}
			}
		}
		if s.TransientBytes > 0 {
			// Allocator spike: grab, touch and immediately release a large
			// transient region. A function that under-declared its memory
			// requirement fails right here with an out-of-memory error.
			tmp, err := api.Malloc(p, s.TransientBytes)
			if err != nil {
				return err
			}
			if err := api.Memset(p, tmp, 0, s.TransientBytes); err != nil {
				return err
			}
			if err := api.Free(p, tmp); err != nil {
				return err
			}
		}
	}
	if err := api.DeviceSynchronize(p); err != nil {
		return err
	}
	if phases != nil {
		phases.Load = p.Now() - loadStart
	}

	// --- processing phase ---
	procStart := p.Now()
	for b := 0; b < s.Batches; b++ {
		if s.BatchInBytes > 0 {
			if err := api.MemcpyH2D(p, inBuf, gpu.HostBuffer{FP: uint64(b + 1), Size: s.BatchInBytes}, s.BatchInBytes); err != nil {
				return err
			}
		}
		for q := 0; q < s.PtrQueries; q++ {
			if _, err := api.PointerGetAttributes(p, work); err != nil {
				return err
			}
		}
		if err := descriptorChurn(p, api, s.DescPairs); err != nil {
			return err
		}
		for l := 0; l < s.Launches; l++ {
			if err := api.LaunchKernel(p, cuda.LaunchParams{
				Fn:       fns[0],
				Grid:     [3]int{256, 1, 1},
				Block:    [3]int{256, 1, 1},
				Duration: s.LaunchTime,
				Mutates:  mutates,
			}); err != nil {
				return err
			}
		}
		for f := 0; f < s.Forwards; f++ {
			switch {
			case dnn.ok && (f%4 != 3 || !blas.ok):
				if err := api.DnnForward(p, dnn.h, "op", s.ForwardTime, mutates, nil); err != nil {
					return err
				}
			case blas.ok:
				if err := api.BlasGemm(p, blas.h, s.ForwardTime, mutates); err != nil {
					return err
				}
			}
		}
		if err := api.StreamSynchronize(p, 0); err != nil {
			return err
		}
		if s.BatchOutBytes > 0 {
			if _, err := api.MemcpyD2H(p, outBuf, s.BatchOutBytes); err != nil {
				return err
			}
		}
		if s.CPUPerBatch > 0 {
			p.Sleep(s.CPUPerBatch)
		}
	}
	if phases != nil {
		phases.Process = p.Now() - procStart
	}

	// --- teardown ---
	if dnn.ok {
		if err := api.DnnDestroy(p, dnn.h); err != nil {
			return err
		}
	}
	if blas.ok {
		if err := api.BlasDestroy(p, blas.h); err != nil {
			return err
		}
	}
	for _, ptr := range []cuda.DevPtr{outBuf, inBuf} {
		if err := api.Free(p, ptr); err != nil {
			return err
		}
	}
	// The working set is offered to the model cache; without one (or for
	// model-less workloads) this is an ordinary free.
	if s.ModelBytes > 0 {
		if err := api.ModelPersist(p, work); err != nil {
			return err
		}
	} else if err := api.Free(p, work); err != nil {
		return err
	}
	return nil
}

type optDNN struct {
	h  cudalibs.DNNHandle
	ok bool
}
type optBLAS struct {
	h  cudalibs.BLASHandle
	ok bool
}

// descriptorChurn issues n create+set+destroy descriptor triples, rotating
// over the cuDNN descriptor species like a graph runtime does.
func descriptorChurn(p *sim.Proc, api gen.API, n int) error {
	for i := 0; i < n; i++ {
		var err error
		switch i % 4 {
		case 0:
			err = churn(p, api.DnnCreateTensorDescriptor, api.DnnSetTensorDescriptor, api.DnnDestroyTensorDescriptor)
		case 1:
			err = churn(p, api.DnnCreateFilterDescriptor, api.DnnSetFilterDescriptor, api.DnnDestroyFilterDescriptor)
		case 2:
			err = churn(p, api.DnnCreateConvolutionDescriptor, api.DnnSetConvolutionDescriptor, api.DnnDestroyConvolutionDescriptor)
		case 3:
			err = churn(p, api.DnnCreateActivationDescriptor, api.DnnSetActivationDescriptor, api.DnnDestroyActivationDescriptor)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func churn[D any](p *sim.Proc,
	create func(*sim.Proc) (D, error),
	set func(*sim.Proc, D) error,
	destroy func(*sim.Proc, D) error,
) error {
	d, err := create(p)
	if err != nil {
		return err
	}
	if err := set(p, d); err != nil {
		return err
	}
	return destroy(p, d)
}

// Function adapts the workload to a deployable serverless function.
func (s *Spec) Function() *faas.Function {
	return &faas.Function{
		Name:          s.Name,
		GPUMem:        s.MemLimit,
		DownloadBytes: s.DownloadBytes,
		ModelDLBytes:  s.ModelBytes,
		Run: func(p *sim.Proc, api gen.API) error {
			return s.RunBody(p, api, nil)
		},
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
