"""Dev scan: train the forecaster on a synthetic span and log test NMAE
every few epochs, for hyperparameter tuning. Not part of the test suite.

    PYTHONPATH=src python scripts/scan_lstm.py [seed epochs lr batch dropout lr_decay]

By default it trains on the data and schedule of
``configs/synthetic_experiment.yaml``: the generator's default parameters
and a learning-rate decay of 0.93 per epoch.
"""

import sys
import time

from pvdispatch.baselines import monthly_hour_fit, monthly_forecast_values
from pvdispatch.data import (
    TimeSeriesDataset,
    WindowSpec,
    derive_dark_mask,
    fit_normalizer,
    normalize,
    split_chronological,
    window_arrays,
)
from pvdispatch.dispatch import nmae
from pvdispatch.lstm import NetworkConfig, TrainingConfig, predict_series, train_epochs
from pvdispatch.pipeline import with_lead_in
from pvdispatch.synth import synth_year


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 60
    lr = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-3
    batch = int(sys.argv[4]) if len(sys.argv) > 4 else 32
    dropout = float(sys.argv[5]) if len(sys.argv) > 5 else 0.2
    decay = float(sys.argv[6]) if len(sys.argv) > 6 else 0.93

    gen, _dem = synth_year(seed=seed, hours=10968, start="2022-10-01T00")
    train_ds, test_ds = split_chronological(gen, 0.7987)
    normalizer = fit_normalizer(train_ds)
    mask = derive_dark_mask(train_ds, 0)
    spec = WindowSpec(24, 12, 0)
    monthly = monthly_hour_fit(train_ds, 0)
    actual = test_ds.values[:, 0]
    m_nmae = nmae(monthly_forecast_values(monthly, test_ds.timestamps), actual)
    print(f"monthly NMAE {m_nmae:.4f}")

    tn = TimeSeriesDataset(
        train_ds.timestamps, normalize(train_ds.values, normalizer),
        train_ds.feature_names,
    )
    samples = window_arrays(tn, spec)
    net = NetworkConfig(input_features=3, layer_sizes=(64, 32), dropout_rate=dropout, seed=1)
    tc = TrainingConfig(
        epochs=epochs, batch_size=batch, learning_rate=lr, seed=2, lr_decay=decay
    )
    test_rows = with_lead_in(gen, spec, train_ds.n)

    t0 = time.time()
    for epoch, (params, train_mse) in enumerate(train_epochs(samples, net, tc)):
        if (epoch + 1) % 5 == 0 or epoch == 0:
            series = predict_series(params, net, test_rows, spec, normalizer, mask)
            tn_val = nmae(series.column(0), actual)
            print(
                f"epoch {epoch + 1:3d} train_mse {train_mse:.5f} "
                f"test_nmae {tn_val:.4f} ratio {tn_val / m_nmae:.3f} "
                f"[{time.time() - t0:.0f}s]",
                flush=True,
            )


if __name__ == "__main__":
    main()
