"""Models and training-loop tests: backbone, decoder, classifier, pretrain, finetune, metrics."""

import numpy as np
import pytest

from repro.datasets import SyntheticIMUConfig, generate_synthetic_dataset
from repro.exceptions import ConfigurationError, TrainingError
from repro.masking import MultiLevelMaskingConfig
from repro.models import (
    BackboneConfig,
    ClassificationModel,
    GRUClassifier,
    MLPClassifier,
    ReconstructionDecoder,
    SagaBackbone,
    build_classification_model,
    build_pretraining_model,
)
from repro.nn import Tensor
from repro.training import (
    ClassificationMetrics,
    FinetuneConfig,
    Finetuner,
    PretrainConfig,
    Pretrainer,
    SupervisedTrainer,
    TrainerConfig,
    TrainingHistory,
    accuracy,
    confusion_matrix,
    evaluate_model,
    evaluate_predictions,
    macro_f1,
    normalize_weights,
    pretrain_backbone,
    relative_metric,
)
from repro.training.history import EpochRecord


@pytest.fixture()
def local_rng():
    return np.random.default_rng(2)


@pytest.fixture(scope="module")
def small_splits():
    dataset = generate_synthetic_dataset(
        SyntheticIMUConfig(
            num_users=3, activities=("walking", "sitting"), windows_per_combination=8,
            window_length=32, seed=13,
        )
    )
    return dataset.split(rng=np.random.default_rng(0), stratify_task="activity")


@pytest.fixture()
def small_backbone_config(small_splits):
    return BackboneConfig(
        input_channels=small_splits.train.num_channels,
        window_length=small_splits.train.window_length,
        hidden_dim=8, num_layers=1, num_heads=2, intermediate_dim=16, dropout=0.0,
    )


class TestBackbone:
    def test_output_shape(self, small_splits, small_backbone_config, local_rng):
        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        out = backbone(small_splits.train.windows[:4])
        assert out.shape == (4, 32, 8)

    def test_default_config_matches_paper(self):
        config = BackboneConfig()
        assert config.hidden_dim == 72
        assert config.num_layers == 4
        assert config.window_length == 120

    def test_channel_mismatch_rejected(self, small_backbone_config, local_rng):
        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        with pytest.raises(ConfigurationError):
            backbone(np.zeros((2, 32, 9)))

    def test_input_must_be_3d(self, small_backbone_config, local_rng):
        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        with pytest.raises(ConfigurationError):
            backbone(np.zeros((32, 6)))

    @pytest.mark.parametrize("pooling", ["mean", "last", "max"])
    def test_representation_pooling(self, pooling, small_splits, small_backbone_config, local_rng):
        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        rep = backbone.representation(small_splits.train.windows[:3], pooling=pooling)
        assert rep.shape == (3, 8)

    def test_unknown_pooling(self, small_splits, small_backbone_config, local_rng):
        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        with pytest.raises(ConfigurationError):
            backbone.representation(small_splits.train.windows[:2], pooling="median")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BackboneConfig(hidden_dim=10, num_heads=3)
        with pytest.raises(ConfigurationError):
            BackboneConfig(dropout=1.5)
        with pytest.raises(ConfigurationError):
            BackboneConfig(input_channels=0)


class TestDecoderAndClassifiers:
    def test_decoder_maps_back_to_channels(self, local_rng):
        decoder = ReconstructionDecoder(hidden_dim=8, output_channels=6, rng=local_rng)
        out = decoder(Tensor(np.zeros((2, 32, 8))))
        assert out.shape == (2, 32, 6)

    def test_decoder_dim_check(self, local_rng):
        decoder = ReconstructionDecoder(hidden_dim=8, output_channels=6, rng=local_rng)
        with pytest.raises(ConfigurationError):
            decoder(Tensor(np.zeros((2, 32, 16))))

    def test_gru_classifier_logits_shape(self, local_rng):
        classifier = GRUClassifier(input_dim=8, num_classes=4, hidden_dim=6, rng=local_rng)
        logits = classifier(Tensor(np.random.default_rng(0).normal(size=(5, 20, 8))))
        assert logits.shape == (5, 4)

    def test_gru_classifier_input_validation(self, local_rng):
        classifier = GRUClassifier(input_dim=8, num_classes=4, rng=local_rng)
        with pytest.raises(ConfigurationError):
            classifier(Tensor(np.zeros((5, 8))))

    def test_mlp_classifier(self, local_rng):
        classifier = MLPClassifier(input_dim=16, num_classes=3, rng=local_rng)
        assert classifier(Tensor(np.zeros((7, 16)))).shape == (7, 3)
        with pytest.raises(ConfigurationError):
            classifier(Tensor(np.zeros((7, 4, 4))))

    def test_composite_model_predict(self, small_splits, small_backbone_config, local_rng):
        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        model = build_classification_model(backbone, num_classes=2, rng=local_rng)
        predictions = model.predict(small_splits.test.windows[:6])
        assert predictions.shape == (6,)
        assert set(predictions).issubset({0, 1})

    def test_pretraining_model_reconstruction_shape(self, small_splits, small_backbone_config, local_rng):
        model = build_pretraining_model(small_backbone_config, rng=local_rng)
        out = model(small_splits.train.windows[:3])
        assert out.shape == (3, 32, 6)

    def test_decoder_channel_mismatch_rejected(self, small_backbone_config, local_rng):
        from repro.models.composite import MaskedReconstructionModel

        backbone = SagaBackbone(small_backbone_config, rng=local_rng)
        bad_decoder = ReconstructionDecoder(hidden_dim=8, output_channels=9, rng=local_rng)
        with pytest.raises(ConfigurationError):
            MaskedReconstructionModel(backbone, decoder=bad_decoder)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(TrainingError):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(TrainingError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3)
        assert matrix[1, 1] == 1
        assert matrix[2, 1] == 1
        assert matrix.sum() == 4

    def test_macro_f1_perfect_and_worst(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert macro_f1(labels, labels, 3) == pytest.approx(1.0)
        assert macro_f1((labels + 1) % 3, labels, 3) == pytest.approx(0.0)

    def test_macro_f1_handles_missing_class(self):
        predictions = np.array([0, 0, 0, 0])
        labels = np.array([0, 0, 1, 1])
        value = macro_f1(predictions, labels, 3)
        assert 0.0 <= value < 1.0

    def test_evaluate_predictions(self):
        metrics = evaluate_predictions(np.array([0, 1]), np.array([0, 0]), 2)
        assert isinstance(metrics, ClassificationMetrics)
        assert metrics.num_samples == 2
        assert "accuracy" in metrics.as_dict()

    def test_relative_metric(self):
        assert relative_metric(0.45, 0.9) == pytest.approx(50.0)
        with pytest.raises(TrainingError):
            relative_metric(0.5, 0.0)


class TestHistory:
    def test_best_and_losses(self):
        history = TrainingHistory()
        for epoch, (loss, acc) in enumerate([(1.0, 0.5), (0.8, 0.7), (0.9, 0.6)]):
            history.append(EpochRecord(epoch=epoch, train_loss=loss, metrics={"accuracy": acc}))
        assert history.losses() == [1.0, 0.8, 0.9]
        assert history.best("accuracy").epoch == 1
        assert history.final_loss() == 0.9
        assert len(history) == 3

    def test_best_missing_metric(self):
        history = TrainingHistory([EpochRecord(0, 1.0)])
        assert history.best("accuracy") is None

    def test_final_loss_empty(self):
        with pytest.raises(TrainingError):
            TrainingHistory().final_loss()

    def test_improved_window(self):
        history = TrainingHistory([EpochRecord(i, 1.0) for i in range(10)])
        assert not history.improved(window=3)


class TestNormalizeWeights:
    def test_normalises_to_simplex(self):
        weights = normalize_weights({"sensor": 2.0, "point": 2.0})
        assert weights["sensor"] == pytest.approx(0.5)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_negative_weights_clipped(self):
        weights = normalize_weights({"sensor": -1.0, "point": 1.0})
        assert weights["sensor"] == 0.0
        assert weights["point"] == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_weights({"sensor": 0.0, "point": 0.0})


class TestPretraining:
    def test_pretrain_reduces_reconstruction_loss(self, small_splits, small_backbone_config):
        config = PretrainConfig(epochs=4, batch_size=16, learning_rate=3e-3, seed=0)
        result = pretrain_backbone(
            small_splits.train, config=config, backbone_config=small_backbone_config,
            rng=np.random.default_rng(0),
        )
        losses = result.history.losses()
        assert losses[-1] < losses[0]
        assert set(result.weights) == {"sensor", "point", "subperiod", "period"}
        assert sum(result.weights.values()) == pytest.approx(1.0)

    def test_pretrain_with_single_level(self, small_splits, small_backbone_config):
        config = PretrainConfig(
            epochs=1, batch_size=16, masking=MultiLevelMaskingConfig(levels=("point",)),
        )
        result = Pretrainer(config, small_backbone_config).pretrain(
            small_splits.train, weights={"point": 1.0}, rng=np.random.default_rng(0)
        )
        assert set(result.per_level_losses) == {"point"}

    def test_pretrain_empty_dataset_rejected(self, small_splits, small_backbone_config):
        empty = small_splits.train.subset([])
        with pytest.raises(TrainingError):
            Pretrainer(PretrainConfig(epochs=1), small_backbone_config).pretrain(empty)

    def test_pretrain_config_validation(self):
        with pytest.raises(ConfigurationError):
            PretrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            PretrainConfig(learning_rate=0.0)


class TestFinetuning:
    def test_finetune_improves_over_chance(self, small_splits, small_backbone_config):
        pretrain_result = pretrain_backbone(
            small_splits.train,
            config=PretrainConfig(epochs=2, batch_size=16, learning_rate=3e-3),
            backbone_config=small_backbone_config,
            rng=np.random.default_rng(0),
        )
        finetune_result = Finetuner(
            FinetuneConfig(epochs=12, batch_size=16, learning_rate=3e-3)
        ).finetune(
            pretrain_result.model.backbone,
            small_splits.train,
            "activity",
            validation_dataset=small_splits.validation,
            rng=np.random.default_rng(0),
        )
        metrics = finetune_result.validation_metrics
        assert metrics is not None
        assert metrics.accuracy > 0.5  # binary task, must beat chance

    def test_finetune_freeze_backbone(self, small_splits, small_backbone_config):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        before = {k: v.copy() for k, v in backbone.state_dict().items()}
        Finetuner(FinetuneConfig(epochs=1, freeze_backbone=True)).finetune(
            backbone, small_splits.train.few_shot("activity", 4), "activity",
            rng=np.random.default_rng(0),
        )
        after = backbone.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_finetune_trains_backbone_when_not_frozen(self, small_splits, small_backbone_config):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        before = {k: v.copy() for k, v in backbone.state_dict().items()}
        Finetuner(FinetuneConfig(epochs=1)).finetune(
            backbone, small_splits.train.few_shot("activity", 4), "activity",
            rng=np.random.default_rng(0),
        )
        after = backbone.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_finetune_empty_dataset_rejected(self, small_splits, small_backbone_config):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            Finetuner(FinetuneConfig(epochs=1)).finetune(
                backbone, small_splits.train.subset([]), "activity"
            )

    def test_evaluate_model_covers_all_samples(self, small_splits, small_backbone_config):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        model = build_classification_model(backbone, 2, rng=np.random.default_rng(0))
        metrics = evaluate_model(model, small_splits.test, "activity")
        assert metrics.num_samples == len(small_splits.test)


class TestSupervisedTrainer:
    def test_trainer_runs_and_records_history(self, small_splits, small_backbone_config):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        model = build_classification_model(backbone, 2, rng=np.random.default_rng(0))
        trainer = SupervisedTrainer(TrainerConfig(epochs=2, batch_size=16, learning_rate=3e-3))
        history = trainer.fit(
            model, small_splits.train, "activity",
            validation_dataset=small_splits.validation,
            rng=np.random.default_rng(0),
        )
        assert len(history) == 2
        assert "accuracy" in history.records[-1].metrics

    def test_early_stopping_truncates(self, small_splits, small_backbone_config):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        model = build_classification_model(backbone, 2, rng=np.random.default_rng(0))
        trainer = SupervisedTrainer(
            TrainerConfig(epochs=10, batch_size=16, early_stopping_patience=1, learning_rate=1e-5)
        )
        history = trainer.fit(
            model, small_splits.train.few_shot("activity", 3), "activity",
            validation_dataset=small_splits.validation, rng=np.random.default_rng(0),
        )
        assert len(history) < 10

    def test_evaluate_records_no_graph_and_matches_grad_mode_predictions(
        self, small_splits, small_backbone_config
    ):
        backbone = SagaBackbone(small_backbone_config, rng=np.random.default_rng(0))
        model = build_classification_model(backbone, 2, rng=np.random.default_rng(0))
        model.eval()
        dataset = small_splits.validation
        seen = []

        def forward(windows):
            logits = model(windows)
            seen.append((windows, logits))
            return logits

        metrics = SupervisedTrainer.evaluate(model, dataset, "activity", forward=forward, batch_size=4)
        assert len(seen) > 1
        grad_mode_predictions = []
        for windows, logits in seen:
            assert logits._prev == () and not logits.requires_grad
            recorded = model(windows)
            assert recorded._prev  # outside evaluate the same forward records a graph
            np.testing.assert_array_equal(recorded.data, logits.data)
            grad_mode_predictions.append(recorded.data.argmax(axis=-1))
        assert metrics == evaluate_predictions(
            np.concatenate(grad_mode_predictions),
            dataset.task_labels("activity"),
            dataset.num_classes("activity"),
        )

    def test_trainer_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(early_stopping_patience=-1)
