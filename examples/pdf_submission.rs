//! The PDF submission service: fabricate a PDF case report, push it
//! through the Grobid-style extraction pipeline, and ingest the result.
//!
//! ```bash
//! cargo run --release --example pdf_submission
//! ```

use create::core::{Create, CreateConfig};
use create::corpus::{CorpusConfig, Generator};
use create::grobid::{write_pdf, PdfSource};
use create::ner::{CrfTagger, CrfTaggerConfig, LabelSet, NerDataset};

fn main() {
    // Train a small NER tagger so automatic extraction works on the
    // submitted text.
    let reports = Generator::new(CorpusConfig {
        num_reports: 60,
        seed: 99,
        ..Default::default()
    })
    .generate();
    let dataset = NerDataset::from_reports(&reports, LabelSet::ner_targets());
    let system = Create::new(CreateConfig::default());
    println!("training NER tagger on {} sentences…", dataset.len());
    let tagger = CrfTagger::train(
        &dataset,
        CrfTaggerConfig::default(),
        Some(system.ontology()),
        None,
    );
    system.attach_tagger(tagger);

    // A user "uploads" this PDF (we fabricate valid PDF bytes — see
    // crates/grobid/src/pdf.rs).
    let pdf_bytes = write_pdf(&PdfSource {
        title: "Giant cell myocarditis presenting as ventricular tachycardia".into(),
        authors: "Okafor N, Lindgren E, Park S".into(),
        affiliation: "Department of Cardiology, University Medical Center".into(),
        body_lines: vec![
            "Abstract".into(),
            "A 44-year-old man presented with palpitations and syncope.".into(),
            "Introduction".into(),
            "Giant cell myocarditis is a rare, often fulminant disease.".into(),
            "Case report".into(),
            "The patient was admitted to the intensive care unit.".into(),
            "An electrocardiogram revealed ventricular tachycardia.".into(),
            "He was treated with amiodarone 200 mg daily.".into(),
            "Two days later, he developed dyspnea and edema.".into(),
            "An endomyocardial biopsy confirmed the diagnosis.".into(),
            "Conclusion".into(),
            "After two weeks of treatment, the patient was discharged.".into(),
        ],
    });
    println!("fabricated PDF: {} bytes", pdf_bytes.len());

    // Submit: PDF → text/metadata extraction → automatic annotation →
    // all three stores.
    let extracted = system
        .ingest_pdf("user:000001", &pdf_bytes)
        .expect("PDF ingestion");
    println!("\nGrobid-style extraction:");
    println!("  title:       {}", extracted.title);
    println!("  authors:     {}", extracted.authors.join("; "));
    println!("  affiliation: {}", extracted.affiliation);
    println!("  abstract:    {}", extracted.abstract_text);
    println!("  sections:    {}", extracted.sections.len());

    // TEI XML output, as Grobid would emit.
    let tei = extracted.to_tei().serialize();
    println!(
        "\nTEI (first 240 chars):\n  {}…",
        &tei[..240.min(tei.len())]
    );

    // The submission is immediately searchable.
    println!("\nsearch 'ventricular tachycardia amiodarone':");
    for hit in system.search("ventricular tachycardia amiodarone", 3) {
        println!("  {} (score {:.3})", hit.report_id, hit.score);
    }

    // And has a temporal graph to visualize.
    if let Some(svg) = system.visualize("user:000001").expect("stored extraction") {
        let path = std::env::temp_dir().join("create_pdf_submission.svg");
        std::fs::write(&path, &svg).expect("write svg");
        println!("\nwrote event-graph visualization to {}", path.display());
    }
}
