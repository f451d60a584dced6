"""Byte-exact layout of each CSV artifact kind.

Every artifact goes through ``sfcsim.artifacts.write_csv``: ``# `` comment
lines ending in ``\\n``, then header and rows as ``csv.writer`` renders them
(``\\r\\n`` line ends). Simulator series keep full ``repr`` precision; the
harness's summary tables use ``%.6f``. The one ``.npz`` reader refuses any
other file.
"""

import numpy as np
import pytest

from sfcsim.artifacts import read_npz, write_csv
from sfcsim.env import StepRecord, write_step_records
from sfcsim.harness import _fmt
from sfcsim.simcore import SERVER_FAIL, VNF_FAIL, SimEvent
from sfcsim.trace import SteppedTrace, write_trace_csv

from helpers import write_event_log


def _trace(path):
    trace = SteppedTrace([1, 2], np.array([[0.1, 2.0], [3.5, 0.0]]),
                         step_duration=300, origin_time_ms=1000)
    write_trace_csv(trace, path, ["config_hash=abc seed=1"])


def _events(path):
    write_event_log([SimEvent(1.25, 1, SERVER_FAIL, 0, 1),
                     SimEvent(0.1 + 0.2, 2, VNF_FAIL, 1, 0, 7, 2)], path)


def _step_records(path):
    write_step_records(
        [StepRecord(0, 1, 0, 0, 0, True, 0, 400.0, 400.0, 70.72, -400.7072,
                    -400.7072, 400.0),
         StepRecord(1, 4, 0, 0, 0, False, 1, 1 / 3, 0.0, 70.72, 99.2928,
                    -301.4144, 400.0)],
        path, ["config_hash=x seed=0"])


def _summary_table(path):
    write_csv(path, ["policy", "n_runs", "mean_reward", "sfc_uptime_fraction"],
              [["noop", 2, _fmt(1 / 3), _fmt(np.float64(2.5))]],
              ["config_hash=x seed=0", "note=second comment"])


@pytest.mark.parametrize("write,expected", [
    pytest.param(_trace,
                 b"# config_hash=abc seed=1\n"
                 b"# origin_time_ms=1000 step_duration_s=300\n"
                 b"step_index,cell_1,cell_2\r\n"
                 b"0,0.1,2.0\r\n"
                 b"1,3.5,0.0\r\n", id="trace"),
    pytest.param(_events,
                 b"time_hours,kind,dc,server,instance_id,vnf_type\r\n"
                 b"1.25,server_fail,0,1,,\r\n"
                 b"0.30000000000000004,vnf_fail,1,0,7,MME\r\n", id="event_log"),
    pytest.param(_step_records,
                 b"# config_hash=x seed=0\n"
                 b"step,a,dc,server,vnf_type,accepted,sfc,packets,lost,"
                 b"energy_w,reward,cum_reward,cum_lost\r\n"
                 b"0,1,0,0,0,1,0,400.0,400.0,70.72,-400.7072,-400.7072,400.0\r\n"
                 b"1,4,0,0,0,0,1,0.3333333333333333,0.0,70.72,99.2928,"
                 b"-301.4144,400.0\r\n", id="step_records"),
    pytest.param(_summary_table,
                 b"# config_hash=x seed=0\n"
                 b"# note=second comment\n"
                 b"policy,n_runs,mean_reward,sfc_uptime_fraction\r\n"
                 b"noop,2,0.333333,2.500000\r\n", id="summary_table"),
])
def test_artifact_bytes(write, expected, tmp_path):
    path = tmp_path / "artifact.csv"
    write(path)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("write", [
    lambda path: np.save(path, np.zeros(3)),
    lambda path: path.write_text("trace:\n  n_cells: 6\n"),
], ids=["npy", "yaml"])
def test_read_npz_rejects_other_files(tmp_path, write):
    path = tmp_path / "model.npy"
    write(path)
    with pytest.raises(ValueError, match=r"^not an \.npz archive$"):
        read_npz(path)
