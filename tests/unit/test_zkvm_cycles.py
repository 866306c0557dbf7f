"""Unit tests for the cycle-cost helpers."""

import pytest

from repro.zkvm import cycles as cy


class TestShaCycles:
    def test_single_block(self):
        assert cy.sha256_cycles(0) == cy.SHA256_COMPRESS_CYCLES
        assert cy.sha256_cycles(55) == cy.SHA256_COMPRESS_CYCLES

    def test_block_boundary(self):
        assert cy.sha256_cycles(56) == 2 * cy.SHA256_COMPRESS_CYCLES

    def test_midstate_flag(self):
        assert cy.sha256_cycles(10, midstate=False) == \
            cy.sha256_cycles(10) + cy.SHA256_COMPRESS_CYCLES

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cy.sha256_cycles(-1)


class TestIoCycles:
    def test_word_rounding(self):
        assert cy.words_for_bytes(0) == 0
        assert cy.words_for_bytes(1) == 1
        assert cy.words_for_bytes(4) == 1
        assert cy.words_for_bytes(5) == 2

    def test_io_cost(self):
        assert cy.io_cycles(8) == 2 * cy.IO_CYCLES_PER_WORD

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cy.words_for_bytes(-1)


class TestSegments:
    """The one segment walk the executor and the planner both use."""

    def test_zero_cycles_is_one_segment(self):
        assert len(cy.segments(0)) == 1

    def test_exact_boundary(self):
        assert len(cy.segments(cy.SEGMENT_CYCLE_LIMIT)) == 1
        assert len(cy.segments(cy.SEGMENT_CYCLE_LIMIT + 1)) == 2

    def test_padding_is_power_of_two(self):
        for count in (1, 100, 8_193, 2**19 + 1):
            [(cycles, po2)] = cy.segments(count)
            padded = 1 << po2
            assert cycles == count
            assert padded >= count
            assert padded & (padded - 1) == 0
            assert padded >= 1 << cy.SEGMENT_MIN_PO2

    def test_minimum_po2(self):
        assert cy.segments(1) == [(1, cy.SEGMENT_MIN_PO2)]
