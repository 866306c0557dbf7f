"""Unit tests for the guest environment and cycle metering."""

import pytest

from repro.errors import ConfigurationError
from repro.hashing import sha256, tagged_hash
from repro.merkle.hasher import default_hasher
from repro.zkvm import GuestEnv, GuestProgram, guest_program
from repro.zkvm.guest import GuestAbortSignal, compute_image_id
from repro.zkvm import cycles as cy
from repro.serialization import encode


def env_with(*values) -> GuestEnv:
    return GuestEnv(tuple(encode(v) for v in values))


class TestGuestIO:
    def test_read_returns_values_in_order(self):
        env = env_with(1, "two", [3])
        assert env.read() == 1
        assert env.read() == "two"
        assert env.read() == [3]
        assert env.frames_remaining == 0

    def test_read_past_end_aborts(self):
        env = env_with()
        with pytest.raises(GuestAbortSignal):
            env.read()

    def test_read_batch_past_end_aborts_before_charging(self):
        env = env_with(1, 2, 3)
        with pytest.raises(GuestAbortSignal,
                           match="guest read past end of input"):
            env.read_batch(5)
        assert env.frames_remaining == 3
        assert env.meter.total == cy.EXECUTION_BASE_CYCLES
        assert "io" not in env.meter.by_category

    def test_empty_batches_leave_no_io_category(self):
        env = env_with(1)
        assert env.read_batch(0) == []
        env.commit_many([])
        assert env.frames_remaining == 1
        assert env.journal_data == b""
        assert "io" not in env.meter.by_category

    def test_commit_builds_journal(self):
        env = env_with()
        env.commit({"x": 1})
        env.commit("done")
        assert env.journal_data == encode({"x": 1}) + encode("done")

    def test_io_charges_cycles(self):
        env = env_with(list(range(100)))
        before = env.meter.total
        env.read()
        assert env.meter.total > before
        assert env.meter.by_category["io"] > 0


class TestGuestHashing:
    def test_sha256_matches_host(self):
        env = env_with()
        assert env.sha256(b"data") == sha256(b"data")

    def test_tagged_hash_matches_host(self):
        env = env_with()
        assert env.tagged_hash("t", b"a", b"b") == tagged_hash("t", b"a",
                                                               b"b")

    def test_hash_charges_per_block(self):
        env = env_with()
        base = env.meter.total
        env.sha256(b"x" * 55)  # one compression
        one = env.meter.total - base
        env.sha256(b"x" * 119)  # two compressions
        two = env.meter.total - base - one
        assert one == cy.SHA256_COMPRESS_CYCLES
        assert two == 2 * cy.SHA256_COMPRESS_CYCLES

    def test_sha_compression_counter(self):
        env = env_with()
        env.sha256(b"x" * 119)
        assert env.meter.sha_compressions == 2

    def test_category_accounting(self):
        env = env_with()
        env.sha256(b"x", category="merkle")
        env.tick(10, category="custom")
        assert env.meter.by_category["merkle"] == \
            cy.SHA256_COMPRESS_CYCLES
        assert env.meter.by_category["custom"] == 10

    def test_metered_merkle_hasher_matches_default(self):
        env = env_with()
        metered = env.merkle_hasher()
        host = default_hasher()
        assert metered.leaf(b"x") == host.leaf(b"x")
        left, right = sha256(b"l"), sha256(b"r")
        assert metered.node(left, right) == host.node(left, right)
        assert metered.empty() == host.empty()
        assert env.meter.by_category["merkle"] > 0

    def test_hash_many_matches_host(self):
        from repro.hashing import hash_many
        env = env_with()
        items = [b"a", b"bb"]
        assert env.hash_many("t", items) == hash_many("t", items)


class TestGuestControl:
    def test_abort_raises_signal(self):
        env = env_with()
        with pytest.raises(GuestAbortSignal, match="boom"):
            env.abort("boom")

    def test_negative_tick_rejected(self):
        env = env_with()
        with pytest.raises(ConfigurationError):
            env.tick(-1)

    def test_verify_records_assumption(self):
        env = env_with()
        claim, image = sha256(b"claim"), sha256(b"image")
        env.verify(image, claim)
        assert len(env.assumptions) == 1
        assert env.assumptions[0].claim_digest == claim
        assert env.assumptions[0].image_id == image
        assert env.meter.by_category["verify"] == cy.ASSUMPTION_CYCLES


class TestGuestProgram:
    def test_image_id_depends_on_source(self):
        def f1(env):
            env.commit(1)

        def f2(env):
            env.commit(2)

        assert compute_image_id(f1, "p") != compute_image_id(f2, "p")

    def test_image_id_depends_on_name(self):
        def fn(env):
            env.commit(1)

        assert compute_image_id(fn, "a") != compute_image_id(fn, "b")

    def test_image_id_stable(self):
        def fn(env):
            env.commit(1)

        assert compute_image_id(fn, "p") == compute_image_id(fn, "p")

    def test_image_id_covers_helpers(self, tmp_path):
        """Two guests identical but for one line of a helper they call
        (here: transitively) must get different image ids — most of
        Algorithm 1 lives in such helpers, outside the decorated
        function."""
        import importlib.util
        import inspect

        template = (
            "def _charge(env):\n"
            "    env.tick({cycles})\n"
            "\n"
            "def step(env):\n"
            "    _charge(env)\n"
            "\n"
            "def guest(env):\n"
            "    step(env)\n"
            "    env.commit(1)\n")

        def load(name, cycles):
            path = tmp_path / f"{name}.py"
            path.write_text(template.format(cycles=cycles))
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.guest

        first, second, twin = (load("variant_a", 1), load("variant_b", 2),
                               load("variant_c", 1))
        assert inspect.getsource(first) == inspect.getsource(second)
        assert compute_image_id(first, "p") != compute_image_id(second, "p")
        assert compute_image_id(first, "p") == compute_image_id(twin, "p")

    def test_image_id_ignores_other_packages(self):
        """Library code from outside the guest's package (here
        ``repro.serialization``) is the toolchain, not the guest."""
        import inspect
        from repro.hashing import TAG_IMAGE_ID

        def fn(env):
            env.commit(encode(1))

        assert compute_image_id(fn, "p") == tagged_hash(
            TAG_IMAGE_ID, b"p", inspect.getsource(fn).encode("utf-8"))

    def test_decorator(self):
        @guest_program("named")
        def prog(env):
            env.commit(1)

        assert isinstance(prog, GuestProgram)
        assert prog.name == "named"

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            GuestProgram("not callable")  # type: ignore[arg-type]
