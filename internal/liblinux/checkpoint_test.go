package liblinux

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

// resumedPath is the program every forged or fuzzed image names, so that a
// missing program (ENOENT) never masks the reader's own verdict.
const resumedPath = "/bin/resumed"

type ckSection struct {
	kind byte
	v    section
}

// sectionCodec is what every section type implements: the writer's
// appendTo and the reader's decode.
type sectionCodec interface {
	section
	decode(payload []byte) error
}

// rawSection is a payload written verbatim, for sections the writer would
// never produce.
type rawSection []byte

func (r rawSection) appendTo(b []byte) []byte { return append(b, r...) }

// forgedImage frames a meta section naming resumedPath, then secs, then
// secDone — the layout every checkpoint image shares.
func forgedImage(secs ...ckSection) []byte {
	var buf bytes.Buffer
	appendSection(&buf, secMeta, &ckMetaSection{PID: 1, ProgramPath: resumedPath, Argv: []string{resumedPath}})
	for _, s := range secs {
		appendSection(&buf, s.kind, s.v)
	}
	appendSection(&buf, secDone, nil)
	return buf.Bytes()
}

func fdImage(fc ckFD) []byte {
	return forgedImage(ckSection{secFDs, &ckFDSection{FDs: []ckFD{fc}}})
}

func memImage(mem ckMemSection) []byte {
	return forgedImage(ckSection{secMemory, &mem})
}

// forgedImages each break one rule the checkpoint reader enforces. fork
// delivers the image on a fork's initial stream instead of resuming it.
var forgedImages = []struct {
	name string
	fork bool
	img  []byte
}{
	{"fd handle without stream", false, fdImage(ckFD{FD: 3, Kind: int(fdPipe), HandleIndex: 0})},
	{"pipe fd without handle", false, fdImage(ckFD{FD: 3, Kind: int(fdPipe), HandleIndex: -1})},
	{"socket fd without handle", true, fdImage(ckFD{FD: 3, Kind: int(fdSocket), HandleIndex: -1})},
	{"handle index past table", true, fdImage(ckFD{FD: 3, Kind: int(fdPipe), HandleIndex: 1 << 40})},
	{"negative fd", false, fdImage(ckFD{FD: -1, Kind: int(fdFile), HandleIndex: -1})},
	{"listener fd", false, fdImage(ckFD{FD: 3, Kind: int(fdListener), HandleIndex: -1})},
	{"empty region", false, memImage(ckMemSection{Brk: brkBase, BrkEnd: brkBase, Regions: []Region{{Start: 0x2000_0000, End: 0x2000_0000}}})},
	{"inverted region", false, memImage(ckMemSection{Brk: brkBase, BrkEnd: brkBase, Regions: []Region{{Start: 0x2000_1000, End: 0x1000}}})},
	{"unaligned region", false, memImage(ckMemSection{Brk: brkBase, BrkEnd: brkBase, Regions: []Region{{Start: 0x2000_0800, End: 0x2000_1800}}})},
	{"break past data segment", false, memImage(ckMemSection{Brk: brkBase, BrkEnd: brkMax + host.PageSize})},
	{"repeated memory section", false, forgedImage(
		ckSection{secMemory, &ckMemSection{Brk: brkBase, BrkEnd: brkBase}},
		ckSection{secMemory, &ckMemSection{Brk: brkBase, BrkEnd: brkBase}})},
	{"pages on fork stream", true, forgedImage(ckSection{secPages, &ckPagesSection{}})},
	{"delta image", false, forgedImage(ckSection{secPages, &ckPagesSection{Delta: true}})},
	{"unknown section", false, forgedImage(ckSection{secDone + 1, nil})},
	{"garbage payload", false, forgedImage(ckSection{secFDs, rawSection("not an fd table")})},
	{"truncated image", false, fdImage(ckFD{FD: 3, Kind: int(fdFile), HandleIndex: -1})[:12]},
}

// TestRestoreRejectsForgedImages pins the reader's validation: every forged
// image comes back as EINVAL from the one restore path, on a fork stream
// and on resume alike, instead of a panic or a half-built process.
func TestRestoreRejectsForgedImages(t *testing.T) {
	for _, c := range forgedImages {
		t.Run(c.name, func(t *testing.T) {
			rt, man := testEnv(t)
			if err := rt.RegisterProgram(resumedPath, func(api.OS, []string) int { return 0 }); err != nil {
				t.Fatal(err)
			}
			var err error
			if c.fork {
				err = restoreOnStream(t, rt, man, c.img)
			} else {
				_, err = rt.ResumeFromBytes(man, c.img)
			}
			if err != api.EINVAL {
				t.Fatalf("err = %v, want EINVAL", err)
			}
		})
	}
	// A well-formed image from the same helper resumes, so each EINVAL
	// above is the forged rule's doing.
	rt, man := testEnv(t)
	if err := rt.RegisterProgram(resumedPath, func(api.OS, []string) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	res, err := rt.ResumeFromBytes(man, forgedImage(
		ckSection{secMemory, &ckMemSection{Brk: brkBase, BrkEnd: brkBase + host.PageSize}},
		ckSection{secFDs, &ckFDSection{FDs: []ckFD{{FD: 3, Kind: int(fdTTY), HandleIndex: -1}}}},
		ckSection{secPages, &ckPagesSection{Pages: []ckPage{{Addr: brkBase, Data: []byte("page")}}}}))
	if err != nil {
		t.Fatalf("well-formed image: %v", err)
	}
	select {
	case <-res.Done:
	case <-time.After(10 * time.Second):
		t.Fatal("resumed process did not exit")
	}
}

// restoreOnStream writes img on the initial stream of a new picoprocess,
// as fork does, and returns what the child's restore reports.
func restoreOnStream(t *testing.T, rt *Runtime, man *monitor.Manifest, img []byte) error {
	t.Helper()
	proc, _, err := rt.mon.Launch(man)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Exit(0)
	errc := make(chan error, 1)
	_, s, err := pal.New(rt.kernel, proc, rt.mon).DkProcessCreate(func(c *pal.PAL, initial *host.Stream) {
		_, _, err := rt.restore(c, initial, initial, nil)
		errc <- err
		c.DkProcessExit(0)
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write(img); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("restore did not return")
		return nil
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint reader
// through ResumeFromBytes on a fresh runtime. Each input must come back as
// an errno or as a clean launch, never a panic. The seed corpus under
// testdata/fuzz holds a full image, a delta and the forged images above.
func FuzzCheckpointDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		rt, man := testEnv(t)
		if err := rt.RegisterProgram(resumedPath, func(api.OS, []string) int { return 0 }); err != nil {
			t.Fatal(err)
		}
		res, err := rt.ResumeFromBytes(man, img)
		if err != nil {
			var errno api.Errno
			if !errors.As(err, &errno) {
				t.Fatalf("resume failed with %v, want an errno", err)
			}
			return
		}
		select {
		case <-res.Done:
		case <-time.After(10 * time.Second):
			t.Fatal("resumed process did not exit")
		}
	})
}

// readCorpusImage returns the image held by one FuzzCheckpointDecode seed
// file.
func readCorpusImage(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s: not a []byte seed", name)
	}
	img, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(img)
}

// TestCheckpointCorpusCurrent keeps the FuzzCheckpointDecode seeds in the
// format the writer produces, so fuzzing starts from images that reach past
// the meta section: each forged seed is the writer's image for its case,
// the full image resumes, and the delta and the gob-encoded image from
// before the binary codec are refused with EINVAL.
func TestCheckpointCorpusCurrent(t *testing.T) {
	for _, c := range forgedImages {
		name := "forged-" + strings.ReplaceAll(c.name, " ", "-")
		if !bytes.Equal(readCorpusImage(t, name), c.img) {
			t.Errorf("%s: seed differs from the writer's image", name)
		}
	}
	for name, want := range map[string]error{
		"full-image":          nil,
		"delta-of-full-image": api.EINVAL,
		"gob-format-image":    api.EINVAL,
	} {
		rt, man := testEnv(t)
		if err := rt.RegisterProgram(resumedPath, func(api.OS, []string) int { return 0 }); err != nil {
			t.Fatal(err)
		}
		res, err := rt.ResumeFromBytes(man, readCorpusImage(t, name))
		if err != want {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		if res != nil {
			select {
			case <-res.Done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: resumed process did not exit", name)
			}
		}
	}
}

// FuzzSectionCodec feeds arbitrary payloads to every section decoder. No
// input may panic, and a payload a decoder accepts must re-encode to bytes
// that decode to the same value.
func FuzzSectionCodec(f *testing.F) {
	for _, s := range []section{
		&ckMetaSection{PID: 7, PPID: -1, PGID: 3, ParentAddr: "p", LeaderAddr: "l", ShardAddrs: []string{"a", "b"},
			ProgramPath: "/bin/x", Argv: []string{"x", ""}, Cwd: "/", Env: map[string]string{"A": "1", "B": ""}},
		&ckMemSection{Brk: brkBase, BrkEnd: brkBase + host.PageSize, Regions: []Region{{Start: 1 << 30, End: 1<<30 + host.PageSize, Prot: 3}}},
		&ckFDSection{FDs: []ckFD{{FD: 3, Kind: int(fdFile), Path: "/f", Flags: 2, Pos: 9, HandleIndex: -1}}},
		&ckSigSection{Dispositions: map[api.Signal]string{api.SIGPIPE: api.SigIgn, api.SIGUSR1: api.SigIgn}},
		&ckPagesSection{Delta: true, Pages: []ckPage{{Addr: brkBase, Data: []byte("page")}}},
	} {
		f.Add(s.appendTo(nil))
	}
	decoders := []func() sectionCodec{
		func() sectionCodec { return new(ckMetaSection) },
		func() sectionCodec { return new(ckMemSection) },
		func() sectionCodec { return new(ckFDSection) },
		func() sectionCodec { return new(ckSigSection) },
		func() sectionCodec { return new(ckPagesSection) },
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, fresh := range decoders {
			v := fresh()
			if v.decode(payload) != nil {
				continue
			}
			again := fresh()
			if err := again.decode(v.appendTo(nil)); err != nil {
				t.Fatalf("%T: re-encoded payload rejected: %v", v, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%T: round trip changed the value:\n%+v\n%+v", v, v, again)
			}
		}
	})
}

// forkAllocBudget bounds the heap allocations of one fork+exit, wait
// included. With gob section payloads the same operation made about 1150;
// a reflection-based codec back on the fork path exceeds the budget.
const forkAllocBudget = 400

func TestForkExitAllocBudget(t *testing.T) {
	rt, man := testEnv(t)
	var allocs float64
	failed := false
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		allocs = testing.AllocsPerRun(50, func() {
			pid, err := p.Fork(func(c api.OS) { c.Exit(0) })
			if err == nil {
				_, err = p.Wait(pid)
			}
			failed = failed || err != nil
		})
		return 0
	})
	if code != 0 || failed {
		t.Fatalf("fork+exit failed (exit %d)", code)
	}
	t.Logf("fork+exit: %.0f allocs/op", allocs)
	if allocs > forkAllocBudget {
		t.Fatalf("fork+exit made %.0f allocs/op, budget %d", allocs, forkAllocBudget)
	}
}
