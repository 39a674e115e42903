package apps

import (
	"strings"

	"graphene/internal/api"
)

// The gcc/make workload (§6.3): "make -jN" spawns one compiler process
// per translation unit; each compiler reads its source file, does CPU work
// proportional to its size, and writes an object file; a final link step
// concatenates the objects. The three paper inputs map to source-tree
// sizes: bzip2 (~5 KLoC, 13 files), libLinux (~31 KLoC, 78 files), and
// gcc (~551 KLoC, 1 file).

// compileWorkPerByte scales CPU work to source size, calibrated so a
// translation unit of a few hundred lines compiles in single-digit
// milliseconds, as a real compiler does.
const compileWorkPerByte = 10000

// CC1Main is /bin/cc1, the compiler proper: one translation unit in, one
// object file out.
//
// Usage: cc1 <src.c> <out.o>
func CC1Main(p api.OS, argv []string) int {
	if len(argv) != 3 {
		printf(p, "usage: cc1 SRC OBJ\n")
		return 2
	}
	src, err := readFile(p, argv[1])
	if err != nil {
		printf(p, "cc1: "+err.Error()+"\n")
		return 1
	}
	// "Compile": the compiler's own workspace (headers, built-ins,
	// allocator arenas — a few MB even for tiny inputs, as with gcc) plus
	// ASTs proportional to the source, then deterministic work, then an
	// object file ~40% the source size.
	touchHeap(p, 6<<20+uint64(len(src))*6)
	sum := burnCPU(len(src) * compileWorkPerByte / 64)
	objLen := len(src) * 2 / 5
	obj := make([]byte, objLen)
	for i := range obj {
		obj[i] = byte(sum >> (uint(i) % 8 * 8))
	}
	if err := writeFile(p, argv[2], obj); err != nil {
		printf(p, "cc1: write: "+err.Error()+"\n")
		return 1
	}
	return 0
}

// LDMain is /bin/ld: concatenates object files into a final binary.
//
// Usage: ld <out> <obj...>
func LDMain(p api.OS, argv []string) int {
	if len(argv) < 3 {
		printf(p, "usage: ld OUT OBJ...\n")
		return 2
	}
	var image []byte
	for _, obj := range argv[2:] {
		data, err := readFile(p, obj)
		if err != nil {
			printf(p, "ld: "+err.Error()+"\n")
			return 1
		}
		image = append(image, data...)
	}
	if err := writeFile(p, argv[1], image); err != nil {
		return 1
	}
	return 0
}

// MakeMain is /bin/make: compiles every src*.c in a directory with up to
// -j parallel cc1 processes, then links.
//
// Usage: make <srcdir> <jobs>
func MakeMain(p api.OS, argv []string) int {
	if len(argv) < 3 {
		printf(p, "usage: make SRCDIR JOBS\n")
		return 2
	}
	dir := argv[1]
	jobs := atoiOr(argv[2], 1)
	if jobs < 1 {
		jobs = 1
	}
	ents, err := p.ReadDir(dir)
	if err != nil {
		printf(p, "make: "+err.Error()+"\n")
		return 1
	}
	var sources []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name, ".c") {
			sources = append(sources, e.Name)
		}
	}
	if len(sources) == 0 {
		printf(p, "make: nothing to build\n")
		return 1
	}

	// Job-server discipline: at most `jobs` cc1 children in flight.
	running := 0
	var objs []string
	fail := false
	for _, src := range sources {
		obj := dir + "/" + strings.TrimSuffix(src, ".c") + ".o"
		objs = append(objs, obj)
		if running >= jobs {
			if res, err := p.Wait(-1); err != nil || res.ExitCode != 0 {
				fail = true
			}
			running--
		}
		if _, err := p.Spawn("/bin/cc1", []string{"/bin/cc1", dir + "/" + src, obj}); err != nil {
			printf(p, "make: spawn: "+err.Error()+"\n")
			return 1
		}
		running++
	}
	for running > 0 {
		if res, err := p.Wait(-1); err != nil || res.ExitCode != 0 {
			fail = true
		}
		running--
	}
	if fail {
		printf(p, "make: compile failed\n")
		return 2
	}
	// Link.
	ldArgv := append([]string{"/bin/ld", dir + "/a.out"}, objs...)
	pid, err := p.Spawn("/bin/ld", ldArgv)
	if err != nil {
		return 1
	}
	res, err := p.Wait(pid)
	if err != nil || res.ExitCode != 0 {
		printf(p, "make: link failed\n")
		return 2
	}
	return 0
}
