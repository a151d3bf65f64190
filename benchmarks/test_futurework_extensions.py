"""Future-work extensions from the paper's Section 6, as benchmarks.

* **Virtual-physical registers** (delayed allocation, refs [7]/[17]):
  how PRI interacts with allocating physical registers at issue rather
  than rename.
* **Load-immediate dead-register hints**: the compiler marks a register
  dead by writing a narrow immediate; the hardware inlines it at rename
  and never allocates a register.
"""

from repro.experiments.figures import ablation

_BENCHMARKS = ("gzip", "twolf")


def test_virtual_physical(render):
    result = render("virtual-physical", ablation)
    stats = result.data["stats"]
    for name in _BENCHMARKS:
        base, vp, pri, both = (stats[f"{name}/40r", column]
                               for column in ("base IPC", "VP", "PRI", "VP+PRI"))
        # Delayed allocation pays off when registers are scarce...
        assert vp.ipc >= base.ipc * 0.99, name
        # ...and composes with PRI.
        assert both.ipc >= pri.ipc * 0.97, name
        # The allocate->write lifetime phase is what VP removes.
        assert (vp.lifetime("int").avg_alloc_to_write
                < base.lifetime("int").avg_alloc_to_write), name


def test_load_immediate_hint(render):
    result = render("load-immediate", ablation)
    stats = result.data["stats"]
    for name in _BENCHMARKS:
        pri, li = stats[name, "PRI IPC"], stats[name, "PRI+hint IPC"]
        assert li.ipc >= pri.ipc * 0.98, name
        assert li.inlined >= pri.inlined, name
