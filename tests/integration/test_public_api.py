"""The public surface: package exports, version, and the documented
import paths all resolve and work."""


class TestTopLevelExports:
    def test_all_names_importable(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro
        assert repro.__version__.count(".") == 2

    def test_doctest_example(self):
        from repro import run
        assert run("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [5]) == \
            [1, 4, 9, 16, 25]


class TestVectorExports:
    def test_all_names(self):
        import repro.vector as V
        for name in V.__all__:
            assert hasattr(V, name), name

    def test_show(self):
        from repro.lang.types import INT, seq_of
        from repro.vector import from_python, show
        s = show(from_python([[1], [2, 3]], seq_of(INT, 2)))
        assert "descriptor V1" in s

    def test_save_load(self, tmp_path):
        from repro.lang.types import INT, TSeq
        from repro.vector import from_python, load_value, save_value, to_python
        f = str(tmp_path / "v.npz")
        save_value(f, from_python([1, 2], TSeq(INT)), TSeq(INT))
        v, t = load_value(f)
        assert to_python(v, t) == [1, 2]


class TestMachineExports:
    def test_all_names(self):
        import repro.machine as M
        for name in M.__all__:
            assert hasattr(M, name), name


class TestDocumentedEntryPoints:
    def test_readme_quickstart_snippet(self):
        from repro import compile_program
        prog = compile_program("""
            fun sqs(n) = [j <- [1..n]: j * j]
            fun main(k) = [i <- [1..k]: sqs(i)]
        """)
        assert prog.run("main", [5])[4] == [1, 4, 9, 16, 25]
        assert "sqs^1" in prog.transformed_source("main", [5])
        assert "cvl" in prog.emit_c("main", ["int"])

    def test_transform_options_fields(self):
        import dataclasses
        from repro import TransformOptions
        assert [f.name for f in dataclasses.fields(TransformOptions)] == [
            "fuse", "trace", "verify", "passes", "print_ir_all",
            "print_ir_after", "ir_sink"]
