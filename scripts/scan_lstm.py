"""Dev scan: train the forecaster through the pipeline's own stages and log
its test NMAE every few epochs, for hyperparameter tuning. Not part of the
test suite.

    PYTHONPATH=src python scripts/scan_lstm.py [CONFIG]

``CONFIG`` defaults to ``configs/synthetic_experiment.yaml``; every setting
(seed, epochs, learning rate and its decay, batch size, dropout, areas)
comes from it. The scan first prints the NMAE of the masked kmeans and
monthly forecasts of the test span, then, at epoch 1, every 5th epoch and
the last, the network's mean training MSE and test NMAE. On a config whose
test span is whole days from midnight these are the NMAEs that ``run``
reports.
"""

import sys
import time
from pathlib import Path

from pvdispatch.dispatch import nmae
from pvdispatch.lstm import train_epochs
from pvdispatch.pipeline import (
    fit_baselines,
    forecast_baselines,
    forecast_network,
    load_config,
    load_inputs,
    split_spans,
    training_setup,
)

EXPERIMENT = Path(__file__).parent.parent / "configs" / "synthetic_experiment.yaml"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    config = load_config(argv[0] if argv else EXPERIMENT)
    generation, _demand, _fleet = load_inputs(config)
    train_ds, test_ds = split_spans(config, generation)
    actual = test_ds.column(config.target_feature_j)
    normalizer, mask, kmeans, monthly = fit_baselines(config, train_ds, {})
    baselines = forecast_baselines(
        config, kmeans, monthly, mask, generation, train_ds.n
    )
    for method, forecast in baselines.items():
        print(f"{method} NMAE {nmae(forecast.column(0), actual):.4f}")

    windows, net, tc = training_setup(config, train_ds, normalizer)
    t0 = time.time()
    for epoch, (params, train_mse) in enumerate(train_epochs(windows, net, tc), 1):
        if epoch == 1 or epoch % 5 == 0 or epoch == tc.epochs:
            forecast = forecast_network(
                config, net, params, normalizer, mask, generation, train_ds.n
            )
            print(
                f"epoch {epoch:3d} train_mse {train_mse:.5f} "
                f"mlstm NMAE {nmae(forecast.column(0), actual):.4f} "
                f"[{time.time() - t0:.0f}s]",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
