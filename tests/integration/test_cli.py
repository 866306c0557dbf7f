"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    db = tmp_path / "logs.db"
    bulletin = tmp_path / "bulletin.json"
    receipts = tmp_path / "receipts"
    assert main(["simulate", "--db", str(db),
                 "--bulletin", str(bulletin),
                 "--records", "150", "--flows-per-tick", "6",
                 "--seed", "3"]) == 0
    return db, bulletin, receipts


class TestSimulate:
    def test_artifacts_created(self, workspace):
        db, bulletin, _receipts = workspace
        assert db.exists()
        data = json.loads(bulletin.read_text())
        assert data["commitments"]
        entry = data["commitments"][0]
        assert set(entry) >= {"router_id", "window_index", "digest",
                              "record_count"}

    def test_info(self, workspace, capsys):
        db, *_ = workspace
        assert main(["info", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "r1" in out


class TestAggregateQueryVerify:
    def test_full_workflow(self, workspace, capsys):
        db, bulletin, receipts = workspace
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        assert list(receipts.glob("round-*.json"))

        out_receipt = db.parent / "query.json"
        assert main(["query", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts),
                     "--out", str(out_receipt),
                     "SELECT COUNT(*) FROM clogs"]) == 0
        output = capsys.readouterr().out
        assert "COUNT(*)" in output
        assert out_receipt.exists()

        assert main(["verify", "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        assert "chain of" in capsys.readouterr().out

    def test_aggregate_empty_store(self, tmp_path):
        db = tmp_path / "empty.db"
        bulletin = tmp_path / "bulletin.json"
        bulletin.write_text(json.dumps({"commitments": []}))
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(tmp_path / "r")]) == 1


class TestVerifyQuery:
    def test_query_receipt_verifies(self, workspace, capsys):
        db, bulletin, receipts = workspace
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        out_receipt = db.parent / "q.json"
        assert main(["query", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts),
                     "--out", str(out_receipt),
                     "SELECT COUNT(*) FROM clogs GROUP BY protocol"]) \
            == 0
        capsys.readouterr()
        assert main(["verify-query", "--bulletin", str(bulletin),
                     "--receipts", str(receipts),
                     "--query-receipt", str(out_receipt)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_tampered_query_receipt_rejected(self, workspace, capsys):
        db, bulletin, receipts = workspace
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        out_receipt = db.parent / "q.json"
        assert main(["query", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts),
                     "--out", str(out_receipt),
                     "SELECT SUM(lost_packets) FROM clogs"]) == 0
        # Rewrite the claimed result inside the receipt JSON: the
        # journal digest breaks.
        import json as json_mod
        from repro.serialization import decode, encode
        from repro.zkvm.receipt import Receipt
        receipt = Receipt.from_json_bytes(out_receipt.read_bytes())
        journal = receipt.journal.decode_one()
        journal["values"] = [999_999]
        import dataclasses
        from repro.zkvm.receipt import Journal
        forged = dataclasses.replace(receipt,
                                     journal=Journal(encode(journal)))
        out_receipt.write_bytes(forged.to_json_bytes())
        del json_mod, decode
        capsys.readouterr()
        assert main(["verify-query", "--bulletin", str(bulletin),
                     "--receipts", str(receipts),
                     "--query-receipt", str(out_receipt)]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestTamperWorkflow:
    def test_tamper_blocks_aggregation(self, workspace, capsys):
        db, bulletin, receipts = workspace
        assert main(["tamper", "--db", str(db), "--router", "r1",
                     "--window", "0", "--kind", "modify-field"]) == 0
        code = main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)])
        assert code == 2
        err = capsys.readouterr().err
        assert "commitment mismatch" in err

    def test_tampered_store_fails_replay(self, workspace, capsys):
        """Aggregate cleanly, then tamper: querying with the recorded
        receipts must refuse (replay cannot reproduce the roots)."""
        db, bulletin, receipts = workspace
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        assert main(["tamper", "--db", str(db), "--router", "r2",
                     "--window", "1", "--kind", "corrupt-bytes"]) == 0
        code = main(["query", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts),
                     "SELECT COUNT(*) FROM clogs"])
        assert code == 2


class TestVerifyRejections:
    def test_verify_fails_on_forged_bulletin(self, workspace, capsys):
        db, bulletin, receipts = workspace
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        # Rewrite one published digest.
        data = json.loads(bulletin.read_text())
        data["commitments"][0]["digest"] = "00" * 32
        bulletin.write_text(json.dumps(data))
        assert main(["verify", "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verify_missing_receipts(self, workspace, capsys):
        _db, bulletin, _receipts = workspace
        code = main(["verify", "--bulletin", str(bulletin),
                     "--receipts", str(_db.parent / "nowhere")])
        assert code == 2

    def test_verify_bundle_malformed_is_a_clean_failure(self, tmp_path,
                                                         capsys):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"version": 1}))
        assert main(["verify-bundle", "--bundle", str(bundle)]) == 1
        captured = capsys.readouterr()
        assert "BUNDLE VERIFICATION FAILED: malformed bundle" \
            in captured.out
        assert "Traceback" not in captured.err


class TestServe:
    def test_serve_and_remote_query(self, workspace, capsys):
        """`repro serve` in a subprocess; `repro query --connect` to it."""
        import os
        import re
        import subprocess
        import sys

        db, bulletin, receipts = workspace
        assert main(["aggregate", "--db", str(db),
                     "--bulletin", str(bulletin),
                     "--receipts", str(receipts)]) == 0
        capsys.readouterr()

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db", str(db), "--bulletin", str(bulletin),
             "--receipts", str(receipts), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"unexpected serve banner: {banner!r}"
            endpoint = f"{match.group(1)}:{match.group(2)}"

            assert main(["query", "--connect", endpoint,
                         "SELECT COUNT(*) FROM clogs"]) == 0
            out = capsys.readouterr().out
            assert "COUNT(*)" in out
            assert "matched" in out
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_query_requires_connect_or_files(self, capsys):
        assert main(["query", "SELECT COUNT(*) FROM clogs"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_connect_to_dead_server_is_a_clean_error(self, capsys):
        assert main(["query", "--connect", "127.0.0.1:1",
                     "SELECT COUNT(*) FROM clogs"]) == 2
        assert "error:" in capsys.readouterr().err
