"""The synthetic-data entry point re-exports the ER generators."""
from repro import synth_data


def test_er_reexports_available(spark):
    """synth_data is the single synthetic-data entry point: the ER
    generators the paper needs are re-exported here."""
    assert synth_data.make_dataset is not None
    assert synth_data.make_multilingual is not None
    assert set(synth_data.DATASET_SPECS) == {
        "walmart_amazon", "amazon_google", "dblp_acm", "dblp_scholar", "abt_buy",
    }
    ds = synth_data.make_dataset(spark, "dblp_acm", scale=0.01, seed=1)
    assert isinstance(ds, synth_data.ERDataset)
    assert ds.R.count() > 0
