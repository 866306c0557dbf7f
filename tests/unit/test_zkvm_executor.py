"""Unit tests for the executor: sessions, segments, abort handling."""

import pytest

from repro.zkvm import ExecutorEnvBuilder, Executor, guest_program
from repro.zkvm import cycles as cy
from repro.zkvm.executor import segment_chain
from repro.zkvm.receipt import ExitCode


@guest_program("echo")
def echo_guest(env):
    env.commit(env.read())


@guest_program("spinner")
def spinner_guest(env):
    n = env.read()
    env.tick(n)
    env.commit("spun")


@guest_program("aborting")
def aborting_guest(env):
    env.abort("deliberate")


@guest_program("crashing")
def crashing_guest(env):
    raise RuntimeError("guest bug")


class TestExecution:
    def test_halted_session(self):
        session = Executor().execute(
            echo_guest, ExecutorEnvBuilder().write("hi").build())
        assert session.exit_code is ExitCode.HALTED
        assert session.journal.decode_one() == "hi"
        assert session.abort_reason is None

    def test_aborted_session(self):
        session = Executor().execute(aborting_guest,
                                     ExecutorEnvBuilder().build())
        assert session.exit_code is ExitCode.ABORTED
        assert session.abort_reason == "deliberate"

    def test_guest_bug_propagates(self):
        with pytest.raises(RuntimeError, match="guest bug"):
            Executor().execute(crashing_guest,
                               ExecutorEnvBuilder().build())

    def test_deterministic_cycles(self):
        env_input = ExecutorEnvBuilder().write("payload").build()
        a = Executor().execute(echo_guest, env_input)
        b = Executor().execute(echo_guest, env_input)
        assert a.total_cycles == b.total_cycles
        assert a.segments == b.segments
        assert a.journal == b.journal


class TestSegments:
    def test_small_run_is_one_segment(self):
        session = Executor().execute(
            spinner_guest, ExecutorEnvBuilder().write(100).build())
        assert session.segment_count == 1

    def test_long_run_splits(self):
        n = 3 * cy.SEGMENT_CYCLE_LIMIT
        session = Executor().execute(
            spinner_guest, ExecutorEnvBuilder().write(n).build())
        assert session.segment_count >= 3
        assert sum(s.cycle_count for s in session.segments) == \
            session.total_cycles

    def test_segments_chain(self):
        n = 2 * cy.SEGMENT_CYCLE_LIMIT
        session = Executor().execute(
            spinner_guest, ExecutorEnvBuilder().write(n).build())
        chain = segment_chain(spinner_guest.image_id, session.segments)
        assert chain == tuple(s.digest for s in session.segments)

    def test_chain_depends_on_image(self):
        session = Executor().execute(
            spinner_guest, ExecutorEnvBuilder().write(10).build())
        other = segment_chain(echo_guest.image_id, session.segments)
        assert other != tuple(s.digest for s in session.segments)

    def test_padded_cycles_power_of_two(self):
        session = Executor().execute(
            spinner_guest, ExecutorEnvBuilder().write(100).build())
        for segment in session.segments:
            assert segment.padded_cycles == 1 << segment.po2
            assert segment.padded_cycles >= segment.cycle_count


class TestExecutorInput:
    def test_digest_depends_on_values(self):
        a = ExecutorEnvBuilder().write(1).build()
        b = ExecutorEnvBuilder().write(2).build()
        assert a.digest != b.digest

    def test_digest_depends_on_framing(self):
        a = ExecutorEnvBuilder().write([1, 2]).build()
        b = ExecutorEnvBuilder().write(1).write(2).build()
        assert a.digest != b.digest

    def test_write_frame_raw(self):
        from repro.serialization import encode
        a = ExecutorEnvBuilder().write_frames([encode("x")]).build()
        b = ExecutorEnvBuilder().write("x").build()
        assert a.digest == b.digest

    def test_total_bytes(self):
        env_input = ExecutorEnvBuilder().write(b"12345").build()
        assert env_input.total_bytes == len(env_input.frames[0])
